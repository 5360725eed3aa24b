"""Fault model for real execution: plans, injection, and reports.

The paper's runtime (§4) assumes every processor survives the run; a
production pool does not get that luxury.  This module is the
self-contained vocabulary the multiprocessing backend uses to *describe*
faults — it imports nothing from the rest of the runtime so ``config``
and ``backends`` can both import it freely.

Three pieces:

* :class:`FaultPlan` / :class:`FaultSpec` — a deterministic, picklable
  description of faults to inject (kill worker k at its n-th chunk,
  raise inside a kernel, delay a reply), built directly or seeded via
  :meth:`FaultPlan.random`;
* :class:`FaultInjector` — the coordinator-side state machine that turns
  a plan into per-dispatch directives (``("kill",)``, ``("raise",)``,
  ``("delay", seconds)``).  All counting happens in the coordinator
  process, so injection is deterministic given the dispatch order;
* :class:`FaultReport` — the structured account of what actually went
  wrong and what recovery did about it, attached to every mp
  ``BackendRunResult`` instead of an opaque crash.

What is recovered: worker-process death (chunks reclaimed and re-run on
the survivors) and kernel exceptions (per-chunk retry with exponential
backoff, then quarantine).  What is *not*: coordinator death and
corrupted shared state — see DESIGN.md's fault model.
"""

from __future__ import annotations

import errno as errno_module
import os
import random as random_module
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Fault kinds a plan can inject.
#:
#: * ``kill`` — the targeted worker process exits abruptly mid-dispatch;
#: * ``raise`` — the kernel raises inside the chunk loop;
#: * ``delay`` — the worker holds its reply after computing (a slow
#:   *link*: results exist but arrive late);
#: * ``slow``  — the worker stalls *before* computing (a slow *chunk*:
#:   the straggler shape that exercises speculation);
#: * ``coordkill`` — the coordinator itself dies at the matching
#:   dispatch (:class:`CoordinatorKilled` leaves the session's ``run``),
#:   simulating coordinator crash for the checkpoint/resume path.  The
#:   journal keeps only chunks completed before the kill;
#: * ``poolkill`` — kill ``times`` *distinct* workers starting at the
#:   ``at_chunk``-th global dispatch (one per victim's next dispatch).
#:   The deterministic way to say "N/2 of the pool dies mid-run" and
#:   exercise elastic respawn without naming worker ids;
#: * ``spawnfail`` — the pool's next ``times`` *respawn attempts* fail
#:   at spawn time (each counts as another death toward the crash-loop
#:   breaker).  Coordinator-side only; never dispatched to a worker;
#: * ``hostloss`` — the ``dist`` coordinator kills the whole host agent
#:   (every worker on it at once) after the ``at_chunk``-th chunk it
#:   dispatched *to that host*; ``worker`` names the host index in the
#:   ``--hosts`` list (``*`` = the first host to reach the count).  The
#:   multi-host analogue of ``poolkill``: reclaim on EOF + Eq. 1
#:   re-rationing over the surviving hosts.  Dist-only; the mp injector
#:   never fires it;
#: * ``diskfail`` — the checkpoint journal's ``at_chunk``-th record
#:   ``write`` or ``fsync`` (``call``) fails with ``errno`` (``EIO`` or
#:   ``ENOSPC``), as a failing disk would: the run stops with
#:   :class:`~repro.runtime.checkpoint.JournalFailedError`.
FAULT_KINDS = ("kill", "raise", "delay", "slow", "coordkill", "poolkill",
               "spawnfail", "hostloss", "diskfail")

#: Exit status of a coordinator killed by a ``coordkill`` fault.
COORDINATOR_KILL_EXIT = 23
#: Exit status of a run whose journal could not be written or synced
#: (EX_IOERR): what was durable resumes, nothing after it is trusted.
JOURNAL_FAIL_EXIT = 74
#: The errors a ``diskfail`` fault can raise.
DISK_ERRORS = {"EIO": errno_module.EIO, "ENOSPC": errno_module.ENOSPC}


class CoordinatorKilled(RuntimeError):
    """A ``coordkill`` fault fired: the session stopped at that dispatch
    with its keys unloaded, its workers handed back and its journal
    closed, as a crashed coordinator's would be.  ``repro run`` exits
    with :data:`COORDINATOR_KILL_EXIT`; a served job fails alone."""


class InjectedFault(RuntimeError):
    """Raised inside a worker kernel by a ``raise`` fault directive."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``worker`` targets a specific worker id, or ``-1`` for "any worker"
    (the fault then fires at the ``at_chunk``-th *global* dispatch).
    ``at_chunk`` counts chunk dispatches (0-based): per-worker when a
    worker is named, across the whole pool otherwise.  ``times`` is how
    many matching dispatches get the fault (``raise`` faults with
    ``times`` larger than the retry budget exhaust it and force
    quarantine).  ``delay`` is the reply delay in seconds for ``delay``
    faults.

    ``poolkill`` reinterprets ``times`` as the number of *distinct*
    workers to kill (each victim dies on its first dispatch at or after
    the ``at_chunk``-th global one); ``worker`` is ignored.
    ``spawnfail`` reinterprets ``times`` as the number of respawn
    attempts to fail; ``worker``/``at_chunk`` are ignored.
    ``diskfail`` counts the journal's ``call`` s instead of dispatches
    and fails one with ``errno``.
    """

    kind: str
    worker: int = -1
    at_chunk: int = 0
    times: int = 1
    delay: float = 0.0
    call: str = ""
    errno: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if self.at_chunk < 0:
            raise ValueError("FaultSpec.at_chunk must be >= 0")
        if self.times < 1:
            raise ValueError("FaultSpec.times must be >= 1")
        if self.kind in ("delay", "slow") and self.delay <= 0:
            raise ValueError(
                f"{self.kind} faults need FaultSpec.delay > 0"
            )
        if self.kind == "diskfail" and (
            self.call not in ("write", "fsync")
            or self.errno not in DISK_ERRORS.values()
        ):
            raise ValueError(
                "diskfail faults need call write|fsync and errno "
                f"{'|'.join(DISK_ERRORS)}"
            )

    def directive(self) -> Tuple:
        """The wire form a worker obeys (``coordkill``/``spawnfail``
        never reach a worker — the coordinator intercepts them; a
        ``poolkill`` victim just sees an ordinary ``kill``)."""
        if self.kind in ("delay", "slow"):
            return (self.kind, self.delay)
        if self.kind == "poolkill":
            return ("kill",)
        return (self.kind,)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one run."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Accept any iterable of specs; freeze to a tuple.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- convenience constructors -------------------------------------------

    @classmethod
    def parse(cls, specs) -> "FaultPlan":
        """A plan from ``--inject-fault`` spec strings: one string or a
        sequence of them (grammar: :func:`parse_fault_spec`)."""
        if isinstance(specs, str):
            specs = (specs,)
        return cls(tuple(parse_fault_spec(str(spec)) for spec in specs))

    @classmethod
    def kill_worker(cls, worker: int = -1, at_chunk: int = 0) -> "FaultPlan":
        """Kill ``worker`` when it is handed its ``at_chunk``-th chunk.

        ``worker=-1`` kills whichever worker receives the ``at_chunk``-th
        *global* dispatch — the deterministic choice when you care that
        *a* worker dies, not which one (a named worker may never be
        handed a chunk on a fast run).
        """
        return cls((FaultSpec("kill", worker=worker, at_chunk=at_chunk),))

    @classmethod
    def kernel_raise(
        cls, at_chunk: int = 0, times: int = 1, worker: int = -1
    ) -> "FaultPlan":
        """Make a kernel raise on ``times`` dispatches from ``at_chunk``."""
        return cls(
            (FaultSpec("raise", worker=worker, at_chunk=at_chunk, times=times),)
        )

    @classmethod
    def delay_reply(
        cls, seconds: float, worker: int = -1, at_chunk: int = 0
    ) -> "FaultPlan":
        """Hold a worker's reply for ``seconds`` after it computes."""
        return cls(
            (
                FaultSpec(
                    "delay", worker=worker, at_chunk=at_chunk, delay=seconds
                ),
            )
        )

    @classmethod
    def kill_coordinator(cls, at_chunk: int = 0) -> "FaultPlan":
        """Kill the *coordinator* at its ``at_chunk``-th global dispatch.

        The run raises :class:`CoordinatorKilled` after handing its
        workers back; the chunk journal keeps everything completed
        before the kill.
        """
        return cls((FaultSpec("coordkill", worker=-1, at_chunk=at_chunk),))

    @classmethod
    def slow_chunk(
        cls, seconds: float, worker: int = -1, at_chunk: int = 0
    ) -> "FaultPlan":
        """Stall one chunk for ``seconds`` *before* it computes.

        The canonical straggler: elapsed time balloons past the
        Kruskal–Weiss tail estimate while the results don't exist yet,
        which is exactly what ``RunConfig.speculation_factor`` fires on.
        """
        return cls(
            (
                FaultSpec(
                    "slow", worker=worker, at_chunk=at_chunk, delay=seconds
                ),
            )
        )

    @classmethod
    def pool_kill(cls, workers: int = 1, at_chunk: int = 0) -> "FaultPlan":
        """Kill ``workers`` distinct pool workers starting at the
        ``at_chunk``-th global dispatch (each victim dies on its next
        dispatch).  The canonical elastic-pool chaos plan: "half the
        pool dies mid-run"."""
        return cls((FaultSpec("poolkill", at_chunk=at_chunk, times=workers),))

    @classmethod
    def host_loss(
        cls, host: int = -1, at_chunk: int = 0, hosts: int = 1
    ) -> "FaultPlan":
        """Kill ``hosts`` distinct host agents, each after the
        ``at_chunk``-th chunk the dist coordinator dispatched to it
        (``host`` pins one agent by its ``--hosts`` index).  The
        multi-host "a machine was withdrawn mid-run" chaos plan."""
        return cls(
            (
                FaultSpec(
                    "hostloss", worker=host, at_chunk=at_chunk, times=hosts
                ),
            )
        )

    @classmethod
    def spawn_failures(cls, attempts: int = 1) -> "FaultPlan":
        """Fail the pool's next ``attempts`` respawn attempts, driving
        the exponential backoff (and, past ``max_respawns``, the
        crash-loop quarantine) deterministically."""
        return cls((FaultSpec("spawnfail", times=attempts),))

    @classmethod
    def random(
        cls,
        seed: int,
        workers: int,
        faults: int = 1,
        kinds: Tuple[str, ...] = ("kill", "raise"),
        max_chunk: int = 8,
    ) -> "FaultPlan":
        """A seeded plan: the same seed always builds the same faults."""
        rng = random_module.Random(seed)
        specs: List[FaultSpec] = []
        for _ in range(faults):
            kind = rng.choice(list(kinds))
            specs.append(
                FaultSpec(
                    kind=kind,
                    worker=rng.randrange(workers),
                    at_chunk=rng.randrange(max_chunk),
                    delay=0.05 if kind == "delay" else 0.0,
                )
            )
        return cls(tuple(specs))


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI form ``kind[:worker[:chunk[:arg]]]``.

    ``worker`` is an id or ``*`` (any); ``arg`` is ``seconds`` for
    ``delay``/``slow`` faults and ``times`` otherwise (for ``poolkill``
    that is the number of distinct workers to kill; for ``spawnfail``
    the number of respawn attempts to fail).
    Examples: ``kill:1:2`` (kill worker 1 at its 2nd chunk),
    ``raise:*:3:2`` (raise on global dispatches 3 and 4),
    ``delay:0:1:0.25``, ``slow:*:2:0.5`` (stall the 2nd global chunk
    half a second before computing), ``coordkill:*:4`` (the coordinator
    dies at its 4th dispatch — exercise ``--resume``),
    ``poolkill:*:2:2`` (from the 2nd global dispatch, kill 2 distinct
    workers — elastic respawn brings them back), ``spawnfail:*:0:3``
    (the next 3 respawn attempts fail at spawn), ``hostloss:1:2``
    (kill the second ``--hosts`` agent after the 2nd chunk dispatched
    to it — dist backend only), ``diskfail:fsync:3:ENOSPC`` (the
    journal's fsync number 3, counted from 0, fails with ``ENOSPC``).
    """
    parts = text.split(":")
    kind = parts[0]
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {text!r}; "
            f"pick from {FAULT_KINDS}"
        )
    at_chunk = int(parts[2]) if len(parts) > 2 and parts[2] else 0
    if kind == "diskfail":
        name = parts[3] if len(parts) > 3 and parts[3] else "EIO"
        return FaultSpec(
            kind=kind,
            at_chunk=at_chunk,
            call=parts[1] if len(parts) > 1 else "",
            errno=DISK_ERRORS.get(name, 0),
        )
    worker = -1
    if len(parts) > 1 and parts[1] not in ("", "*"):
        worker = int(parts[1])
    times, delay = 1, 0.0
    if len(parts) > 3 and parts[3]:
        if kind in ("delay", "slow"):
            delay = float(parts[3])
        else:
            times = int(parts[3])
    if kind in ("delay", "slow") and delay <= 0:
        delay = 0.1
    return FaultSpec(
        kind=kind, worker=worker, at_chunk=at_chunk, times=times, delay=delay
    )


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-dispatch directives.

    Lives in the coordinator: it counts chunk dispatches (globally and
    per worker) and fires each spec at most ``times`` times, so the same
    plan against the same dispatch sequence injects the same faults.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._global = 0
        self._per_worker: Dict[int, int] = {}
        self._fired = [0] * len(plan.specs)
        #: Per-``poolkill``-spec set of wids already handed a kill, so
        #: ``times`` counts *distinct* victims.
        self._victims: Dict[int, set] = {}
        #: Chunks dispatched per host (``hostloss`` accounting, dist only).
        self._per_host: Dict[int, int] = {}
        #: Per-``hostloss``-spec set of hosts already killed.
        self._host_victims: Dict[int, set] = {}
        #: Journal calls made so far, by call (``diskfail`` accounting).
        self._journal_calls: Dict[str, int] = {}

    def spawn_failures(self) -> int:
        """Total respawn attempts the plan's ``spawnfail`` specs doom
        (consumed by the pool at session setup, not per dispatch)."""
        return sum(
            spec.times for spec in self.plan.specs
            if spec.kind == "spawnfail"
        )

    def on_dispatch(self, wid: int) -> Optional[Tuple]:
        """The directive for this dispatch, or ``None``.

        At most one fault fires per dispatch (specs are checked in plan
        order); counters advance either way.
        """
        global_index = self._global
        self._global += 1
        worker_index = self._per_worker.get(wid, 0)
        self._per_worker[wid] = worker_index + 1
        for spec_index, spec in enumerate(self.plan.specs):
            if spec.kind in ("spawnfail", "hostloss", "diskfail"):
                # spawnfail is consumed at pool setup, hostloss fires
                # through on_host_dispatch, diskfail through on_journal:
                # none reaches a worker.
                continue
            if spec.kind == "poolkill":
                victims = self._victims.setdefault(spec_index, set())
                if (
                    global_index < spec.at_chunk
                    or wid in victims
                    or len(victims) >= spec.times
                ):
                    continue
                victims.add(wid)
                self._fired[spec_index] += 1
                return spec.directive()
            if spec.worker >= 0 and spec.worker != wid:
                continue
            index = worker_index if spec.worker >= 0 else global_index
            if index < spec.at_chunk:
                continue
            if self._fired[spec_index] >= spec.times:
                continue
            self._fired[spec_index] += 1
            return spec.directive()
        return None

    def on_journal(self, call: str) -> None:
        """Count one journal ``call`` (``"write"`` / ``"fsync"``) and
        raise the ``OSError`` a ``diskfail`` spec plans for it."""
        count = self._journal_calls.get(call, 0)
        self._journal_calls[call] = count + 1
        for spec in self.plan.specs:
            planned = ("diskfail", call, count)
            if (spec.kind, spec.call, spec.at_chunk) == planned:
                raise OSError(spec.errno, os.strerror(spec.errno))

    def on_host_dispatch(self, host: int) -> bool:
        """Advance the per-host chunk count; ``True`` = kill this host.

        The dist coordinator calls this once per chunk dispatched to
        ``host`` (a ``--hosts`` index).  A ``hostloss`` spec fires when
        the named host (or, with ``worker=-1``, any host) reaches its
        ``at_chunk``-th dispatch, at most ``times`` *distinct* hosts
        per spec.
        """
        count = self._per_host.get(host, 0)
        self._per_host[host] = count + 1
        for spec_index, spec in enumerate(self.plan.specs):
            if spec.kind != "hostloss":
                continue
            victims = self._host_victims.setdefault(spec_index, set())
            if host in victims or len(victims) >= spec.times:
                continue
            if spec.worker >= 0 and spec.worker != host:
                continue
            if count < spec.at_chunk:
                continue
            victims.add(host)
            self._fired[spec_index] += 1
            return True
        return False


@dataclass
class FaultReport:
    """What went wrong during one run, and what recovery did about it.

    Attached to every mp :class:`BackendRunResult` (empty for clean
    runs) so callers inspect structure instead of parsing a traceback.
    """

    #: Worker ids detected dead, in detection order.
    workers_died: List[int] = field(default_factory=list)
    #: Chunks reclaimed from dead workers and re-enqueued.
    chunks_reassigned: int = 0
    #: Tasks inside those reclaimed chunks.
    tasks_reassigned: int = 0
    #: Chunk retry attempts after kernel exceptions (with backoff).
    retries: int = 0
    #: ``(op label, task index)`` pairs whose retry budget ran out.
    quarantined: List[Tuple[str, int]] = field(default_factory=list)
    #: Fault directives actually injected (kind/worker/chunk dicts).
    injected: List[Dict[str, Any]] = field(default_factory=list)
    #: Straggler chunks duplicated onto idle workers (speculation).
    chunks_speculated: int = 0
    #: Task results dropped because another copy finished first
    #: (speculation first-result-wins, or a late report from a worker
    #: whose chunk had already been reclaimed).
    duplicate_results_dropped: int = 0
    #: Dead pool workers respawned during the run (elastic pool only).
    workers_respawned: int = 0
    #: Pool slots quarantined by the crash-loop breaker: structured
    #: ``{"slot", "deaths", "window", "reason"}`` dicts.
    pool_quarantined: List[Dict[str, Any]] = field(default_factory=list)
    #: Host agents lost mid-run (dist backend): ``--hosts`` indices in
    #: detection order (their workers also appear in ``workers_died``).
    hosts_lost: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every task's result made it into the totals."""
        return not self.quarantined

    @property
    def any_fault(self) -> bool:
        """Whether the run saw any fault-recovery activity at all."""
        return bool(
            self.workers_died
            or self.retries
            or self.quarantined
            or self.injected
            or self.chunks_speculated
            or self.duplicate_results_dropped
            or self.workers_respawned
            or self.pool_quarantined
            or self.hosts_lost
        )

    def merge(self, other: "FaultReport") -> None:
        """Fold another run's report into this one (multi-step drivers)."""
        self.workers_died.extend(other.workers_died)
        self.chunks_reassigned += other.chunks_reassigned
        self.tasks_reassigned += other.tasks_reassigned
        self.retries += other.retries
        self.quarantined.extend(other.quarantined)
        self.injected.extend(other.injected)
        self.chunks_speculated += other.chunks_speculated
        self.duplicate_results_dropped += other.duplicate_results_dropped
        self.workers_respawned += other.workers_respawned
        self.pool_quarantined.extend(other.pool_quarantined)
        self.hosts_lost.extend(other.hosts_lost)

    def summary(self) -> str:
        """One line per fault category ("no faults" on a clean run)."""
        if not self.any_fault:
            return "no faults"
        parts = []
        if self.workers_died:
            parts.append(
                f"workers died: {self.workers_died} "
                f"({self.chunks_reassigned} chunks / "
                f"{self.tasks_reassigned} tasks reassigned)"
            )
        if self.retries:
            parts.append(f"chunk retries: {self.retries}")
        if self.quarantined:
            parts.append(
                f"quarantined tasks: {len(self.quarantined)} "
                f"{self.quarantined[:8]}"
            )
        if self.injected:
            parts.append(f"faults injected: {len(self.injected)}")
        if self.chunks_speculated:
            parts.append(
                f"chunks speculated: {self.chunks_speculated} "
                f"({self.duplicate_results_dropped} duplicate results "
                "dropped)"
            )
        elif self.duplicate_results_dropped:
            parts.append(
                f"duplicate results dropped: "
                f"{self.duplicate_results_dropped}"
            )
        if self.workers_respawned:
            parts.append(f"workers respawned: {self.workers_respawned}")
        if self.pool_quarantined:
            slots = [entry["slot"] for entry in self.pool_quarantined]
            parts.append(f"pool slots quarantined: {slots}")
        if self.hosts_lost:
            parts.append(f"hosts lost: {self.hosts_lost}")
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """The report as plain JSON-serializable data."""
        return {
            "ok": self.ok,
            "workers_died": list(self.workers_died),
            "chunks_reassigned": self.chunks_reassigned,
            "tasks_reassigned": self.tasks_reassigned,
            "retries": self.retries,
            "quarantined": [list(pair) for pair in self.quarantined],
            "injected": list(self.injected),
            "chunks_speculated": self.chunks_speculated,
            "duplicate_results_dropped": self.duplicate_results_dropped,
            "workers_respawned": self.workers_respawned,
            "pool_quarantined": [
                dict(entry) for entry in self.pool_quarantined
            ],
            "hosts_lost": list(self.hosts_lost),
        }
