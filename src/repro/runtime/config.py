"""The unified run configuration shared by every execution backend.

One frozen dataclass carries the machine shape, scheduler policy, taper
parameters, allocator choice and tracer; backends
(:mod:`repro.runtime.backends`) and the public facade (:mod:`repro.api`)
take one ``RunConfig`` instead of a knob soup.

Each knob is declared once.  A field's ``metadata`` holds everything
that is derived from it:

* ``flags`` / ``help`` / ``metavar`` — its command-line spelling
  (:func:`add_flags` puts it on a subparser, :func:`from_args` reads it
  back; ``python -m repro CMD --help`` is the flag reference);
* ``choices`` — the accepted values; ``ge`` / ``gt`` — an inclusive /
  exclusive lower bound (``None`` passes where ``None`` is the default).
  ``__post_init__`` checks both from a table built once at import.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from .faults import FaultPlan
from .machine import MachineConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.events import Tracer

#: Names accepted by :func:`repro.runtime.schedulers.make_policy`.
POLICIES = ("taper", "taper-nocost", "self", "gss", "factoring", "static")
ALLOCATORS = ("balance", "even", "proportional")
BACKENDS = ("sim", "mp", "dist")
COST_SOURCES = ("measured", "declared")
MP_START_METHODS = (None, "fork", "spawn", "forkserver")
ON_FAULT = ("retry", "fail")
BATCHINGS = ("auto", "off")

#: argparse ``type`` by annotation text (``Optional[...]`` stripped);
#: annotations are strings under ``from __future__ import annotations``.
_ARG_TYPES = {"int": int, "float": float}


def add_flags(parser, cls, names, optional=False) -> None:
    """Add the flags of ``cls``'s fields ``names`` to an argparse
    ``parser``.  ``optional`` makes every default ``None`` (a per-job
    override that may be absent) instead of the field's own."""
    declared = {f.name: f for f in dataclasses.fields(cls)}
    for name in names:
        f = declared[name]
        meta = f.metadata
        default = None if optional else meta.get("cli_default", f.default)
        note = "" if default is None else f" (default: {default})"
        parser.add_argument(
            *meta["flags"],
            default=default,
            type=_ARG_TYPES.get(f.type.replace("Optional[", "").rstrip("]")),
            choices=[c for c in meta.get("choices", ()) if c] or None,
            metavar=meta.get("metavar"),
            help=meta["help"] + note,
        )


def from_args(cls, args) -> dict:
    """``cls`` keyword arguments for every field whose flag
    :func:`add_flags` put on ``args`` (``--max-retries`` is read from
    ``args.max_retries``, argparse's own naming)."""
    found = {}
    for f in dataclasses.fields(cls):
        if "flags" in f.metadata:
            dest = f.metadata["flags"][0].lstrip("-").replace("-", "_")
            if hasattr(args, dest):
                found[f.name] = getattr(args, dest)
    return found


def _check_table(cls) -> tuple:
    """``(name, choices, bound, exclusive, none_ok)`` per field that
    declares ``choices`` or a bound."""
    return tuple(
        (
            f.name,
            f.metadata.get("choices"),
            f.metadata.get("gt", f.metadata.get("ge")),
            "gt" in f.metadata,
            f.default is None,
        )
        for f in dataclasses.fields(cls)
        if f.metadata.keys() & {"choices", "ge", "gt"}
    )


def _check_fields(config, table) -> None:
    for name, choices, bound, exclusive, none_ok in table:
        value = getattr(config, name)
        if choices is not None:
            if value not in choices:
                raise ValueError(
                    f"unknown {name} {value!r}; pick from {choices}"
                )
        elif value is None and none_ok:
            continue
        elif (value <= bound) if exclusive else (value < bound):
            raise ValueError(
                f"{type(config).__name__}.{name} must be "
                f"{'>' if exclusive else '>='} {bound}"
                + (" (or None)" if none_ok else "")
            )


def check_port(port: int, lowest: int, name: str) -> int:
    """``port`` if it lies in ``lowest``-65535, else ``ValueError``
    naming ``name``: ``getaddrinfo`` would wrap it modulo 65536."""
    if not lowest <= port <= 65535:
        raise ValueError(f"{name}: port {port} is outside {lowest}-65535")
    return port


def parse_hosts(spec: str) -> List[Tuple[str, int]]:
    """``"h1:p1,h2:p2"`` -> ``[("h1", p1), ("h2", p2)]``, the one reading
    of ``RunConfig.hosts``: every entry ``host:port`` with a port in
    1-65535, at least one entry."""
    pairs: List[Tuple[str, int]] = []
    for entry in filter(None, (h.strip() for h in spec.split(","))):
        host, _, port = entry.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"RunConfig.hosts entry {entry!r} is not host:port"
            )
        pairs.append(
            (host, check_port(int(port), 1, f"RunConfig.hosts {entry!r}"))
        )
    if not pairs:
        raise ValueError(
            "RunConfig.hosts must name at least one host:port agent "
            "(or be None)"
        )
    return pairs


@dataclass(frozen=True)
class PoolConfig:
    """Elasticity and self-healing knobs for a ``WorkerPool`` or a
    ``SimFleet`` (whose times are work units).

    The pool's *base width* is the ``processors`` it was built with;
    these knobs govern how the width may move around that point: dead
    workers respawn under exponential backoff, a crash-looping slot is
    quarantined (the pool narrows durably), and a serve-mode pool
    shrinks idle workers and grows dormant slots when queued demand and
    TAPER cost samples say the load is compute-bound.
    """

    min_workers: Optional[int] = field(default=None, metadata={
        "flags": ("--min-workers",), "metavar": "N", "ge": 1,
        "help": "idle-shrink floor: the pool never shrinks below N live "
        "workers (default: the base width, i.e. idle shrink only ever "
        "releases grown workers)",
    })
    max_workers: Optional[int] = field(default=None, metadata={
        "flags": ("--max-workers",), "metavar": "N", "ge": 1,
        "help": "elastic ceiling: grow up to N workers when the load is "
        "compute-bound (default: the base width, i.e. no growth)",
    })
    respawn_backoff: float = field(default=0.1, metadata={
        "flags": ("--respawn-backoff",), "metavar": "SECONDS", "ge": 0,
        "help": "base delay before respawning a dead worker; the n-th "
        "death within the rolling window waits twice the (n-1)-th",
    })
    max_respawns: int = field(default=3, metadata={
        "flags": ("--max-respawns",), "metavar": "N", "ge": 0,
        "help": "crash-loop breaker: quarantine a pool slot that dies "
        "more than N times within the rolling respawn window",
    })
    idle_timeout: Optional[float] = field(default=None, metadata={
        "flags": ("--idle-timeout",), "metavar": "SECONDS", "gt": 0,
        "help": "cooperatively stop a serve-mode worker idle this long, "
        "down to --min-workers (default: never shrink)",
    })
    shm_cache_bytes: Optional[int] = field(default=None, metadata={
        "flags": ("--shm-cache-bytes",), "metavar": "BYTES", "ge": 0,
        "help": "byte budget of the pool's shared-memory payload segment "
        "cache (repro.runtime.backends.shm.SegmentCache): least-recently "
        "used unpinned segments are evicted past it (default 256 MiB, "
        "shm.DEFAULT_CACHE_BYTES; 0 = unbounded)",
    })

    def __post_init__(self) -> None:
        _check_fields(self, _POOL_CHECKS)
        if (
            self.min_workers is not None
            and self.max_workers is not None
            and self.min_workers > self.max_workers
        ):
            raise ValueError(
                "PoolConfig.min_workers must not exceed max_workers"
            )


_POOL_CHECKS = _check_table(PoolConfig)


@dataclass(frozen=True)
class RunConfig:
    """Everything a backend needs to execute parallel operations.

    The dataclass is frozen: a config can be shared between runs, used as
    a dict key, and handed to worker processes without aliasing surprises.
    Use :meth:`with_` to derive variants.

    Every backend runs the same session, so scheduling, fault and
    checkpoint fields hold on all of them; the simulator, which runs
    tasks inline, ignores ``time_scale`` and ``batching``.
    """

    processors: int = field(default=8, metadata={
        "flags": ("--procs", "-p"), "ge": 1, "cli_default": 4,
        "help": "processors (sim) / worker processes (mp; for serve, the "
        "resident pool all jobs share); ignored by dist, whose width is "
        "the union of what the host agents expose",
    })
    backend: str = field(default="sim", metadata={
        "flags": ("--backend",), "choices": BACKENDS,
        "help": "execution backend: sim (the discrete-event simulator), "
        "mp (real multiprocessing workers) or dist (remote `repro "
        "hostagent` fleets, see --hosts)",
    })
    policy: str = field(default="taper", metadata={
        "flags": ("--policy",), "choices": POLICIES,
        "help": "chunk self-scheduling policy",
    })
    #: Initial processor split among concurrent operations: ``"balance"``
    #: (Eq. 1), ``"even"``, or ``"proportional"``.
    allocator: str = field(default="balance", metadata={"choices": ALLOCATORS})
    #: Minimum grain fixed by the front end (TAPER's floor).
    min_chunk: int = field(default=1, metadata={"ge": 1})
    #: Simulated machine cost parameters; defaults to
    #: ``MachineConfig(processors=processors)``.  Must agree with
    #: ``processors`` when given.
    machine: Optional[MachineConfig] = None
    cost_source: str = field(default="measured", metadata={
        "flags": ("--cost-source",), "choices": COST_SOURCES,
        "help": "where the mp backend's TAPER statistics come from: "
        "measured wall-clock task durations, or the operation's declared "
        "per-task costs (deterministic chunk sizes, for equivalence tests)",
    })
    #: Seconds of real busy-work per declared work unit when the mp
    #: backend executes a simulated :class:`ParallelOp`.
    time_scale: float = field(default=2e-4, metadata={"gt": 0})
    # Kernels without a ``batch_fn``, retried chunks, and quarantine
    # always use the per-task path regardless of this setting.
    batching: str = field(default="auto", metadata={
        "flags": ("--batching",), "choices": BATCHINGS,
        "help": "whether mp workers run a whole TAPER chunk as one "
        "vectorized Kernel.batch_fn call over its payload slice: auto "
        "batches chunks of at least kernel.BATCH_AUTO_MIN_TASKS tasks, "
        "off is always per-task",
    })
    # Why ``fork`` is pinned where offered:
    # :func:`repro.runtime.backends.pool.default_start_method`.  Under
    # every method kernels and pickle-plane payloads must pickle
    # (validated per op at session setup).
    mp_start_method: Optional[str] = field(default=None, metadata={
        "flags": ("--start-method",), "choices": MP_START_METHODS,
        "help": "multiprocessing start method for the workers (default: "
        "fork where the platform offers it, else spawn)",
    })
    mp_timeout: float = field(default=120.0, metadata={
        "flags": ("--timeout",), "gt": 0,
        "help": "run-level watchdog: seconds a run may take from its "
        "first dispatch before it raises MpBackendError, however fast "
        "its workers report",
    })
    on_fault: str = field(default="retry", metadata={
        "flags": ("--on-fault",), "choices": ON_FAULT,
        "help": "when a worker dies or a kernel raises: retry "
        "(reclaim/re-enqueue chunks, continue degraded on the survivors) "
        "or fail (raise MpBackendError immediately)",
    })
    max_retries: int = field(default=2, metadata={
        "flags": ("--max-retries",), "ge": 0,
        "help": "per-task retry budget; a task failing more often is "
        "quarantined and reported in the FaultReport, not retried forever",
    })
    #: Base of the exponential retry backoff: a chunk's n-th retry waits
    #: ``retry_backoff * 2**(n-1)`` seconds before re-dispatch.
    retry_backoff: float = field(default=0.05, metadata={"ge": 0})
    #: Deterministic fault-injection plan (``None`` = no injection).
    fault_plan: Optional[FaultPlan] = None
    checkpoint_dir: Optional[str] = field(default=None, metadata={
        "flags": ("--checkpoint",), "metavar": "DIR",
        "help": "journal every completed chunk to DIR/journal.jsonl "
        "(repro.runtime.checkpoint states the durability contract): a "
        "killed run restarts from where it stopped via --resume DIR",
    })
    #: Replay ``checkpoint_dir``'s journal before running: completed
    #: chunks are skipped, TAPER statistics re-seeded from journaled
    #: samples, and only the remaining work re-rationed.  Refused with
    #: :class:`~repro.runtime.checkpoint.CheckpointMismatchError` when
    #: the journal was written under a different scheduling config.
    resume: bool = False
    #: Not a knob: ``{"target", "overrides"}`` as :func:`repro.api.run`
    #: or a serve ``submit`` named the run, carried to the checkpoint
    #: header (and back by :func:`repro.api.resume_config`).
    run_target: Optional[dict] = field(default=None, compare=False)
    speculation_factor: Optional[float] = field(default=None, metadata={
        "flags": ("--speculate",), "metavar": "FACTOR", "gt": 0,
        "help": "duplicate a straggling chunk onto an idle worker when "
        "its elapsed time exceeds FACTOR x its Kruskal-Weiss tail "
        "estimate; first result wins, the loser is never double-counted "
        "(try 2.0; default off, duplicates cost real work)",
    })
    wall_clock_limit: Optional[float] = field(default=None, metadata={
        "flags": ("--wall-clock-limit",), "metavar": "SECONDS", "gt": 0,
        "help": "stop gracefully after SECONDS: drain in-flight chunks, "
        "flush the journal, stop workers and exit 75 with a partial "
        "result flagged cancelled (vs --timeout, which raises)",
    })
    stream_window: int = field(default=4, metadata={
        "flags": ("--window",), "metavar": "PAGES", "ge": 1,
        "help": "streaming admission window: unsettled pages a stream "
        "may hold admitted at once; the next page waits for the oldest "
        "outstanding one to settle",
    })
    #: Elasticity/self-healing knobs for the ``WorkerPool`` every mp run
    #: borrows — the one :meth:`MultiprocessingBackend.prepare` keeps,
    #: or the ephemeral one a plain run builds.  ``None`` means
    #: ``PoolConfig()``: a dead worker is respawned under backoff, up to
    #: ``max_respawns=3`` deaths per slot.  The simulator's fleet heals
    #: by it too, in work units; ``dist`` ignores it (each host agent
    #: runs its own pool).
    pool: Optional[PoolConfig] = None
    hosts: Optional[str] = field(default=None, metadata={
        "flags": ("--hosts",), "metavar": "HOST:PORT[,HOST:PORT...]",
        "help": "dist backend (required by it, meaningless elsewhere): "
        "comma-separated `repro hostagent` addresses; the coordinator "
        "schedules over the union of their workers",
    })
    #: Observability sink shared by both backends (``None`` = no tracing).
    tracer: Optional["Tracer"] = field(default=None, compare=False)
    seed: int = field(default=0, metadata={
        "flags": ("--seed",),
        "help": "seed for synthetic-cost generation in drivers that "
        "need one",
    })

    def __post_init__(self) -> None:
        _check_fields(self, _RUN_CHECKS)
        if self.resume and not self.checkpoint_dir:
            raise ValueError(
                "RunConfig.resume=True requires checkpoint_dir to name "
                "the journal to replay"
            )
        if self.hosts is not None:
            parse_hosts(self.hosts)
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


_RUN_CHECKS = _check_table(RunConfig)
