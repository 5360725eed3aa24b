"""The four workloads.

Each takes the run's :class:`Options` and returns an :class:`Outcome`.
With tracing off it measures the end-to-end metrics and, under the
issue's names, what the client saw (``cli`` reports those as
``client.*``); with tracing on it runs a shorter pass in which every
other operation records spans, then the layer replay, and returns the
per-layer metrics.  The generator is
seeded; the program under test receives only the generated inputs, and
every result is compared with a reference computed here, once per
distinct input, by an in-process serial ``batch_fn`` pass.

Everything is sized for ``nproc`` = 2: two workers, and load from this
one process with at most one closed-loop and one open-loop connection
in flight.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

import repro.api as api
from repro.apps.kernels import array_ops, psirrfan_ops
from repro.runtime.config import PoolConfig, RunConfig

from . import host, serveload
from .layers import MP_CFG, PROCS, Input, RepJob, Replay, serial_batch
from .serveload import Daemon, JobSpec, Sample
from .stats import BLOCKS, Reading, best_block, percentile, split
from .trace import SpanRecorder, repeat_until

T = TypeVar("T")

#: Open-loop rates, jobs per second.  Fixed: a rate that followed the
#: machine would hide a slowdown.
SMALL_RATE = 20.0
MIXED_RATE = 6.0
BIG_JOB = {"tasks": 512, "elements": 2000}
FIG1_SOURCE = os.path.join("examples", "fig1.f")
#: Distinct inputs per class.  Enough that the mean work per job is the
#: same to within a percent whatever the seed.
SMALL_INPUTS = 64
BIG_INPUTS = 6
#: Small jobs in the fixed warm-up pass that precedes the memory reading.
WARM_JOBS = 32
#: batch_payload: 6 x 16 MiB overflows the segment cache, so every run
#: of the miss arm lays out and evicts; 2 x 16 MiB fits, so every run
#: of the hit arm re-attaches.  The arms alternate PAYLOAD_ROUNDS times.
#: The cache budget is 64 MiB, not the default 256: same LRU, a quarter
#: of the memory.  First touch of guest memory costs up to 40 us a page
#: on this VM, and 416 MiB of inputs took anywhere from 2 to 20 s to
#: build.
CACHE_BYTES = 64 * 2**20
MISS_SETS = 6
HIT_SETS = 2
PAYLOAD_TASKS = 32
PAYLOAD_ROUNDS = 5
PAYLOAD_ROW = 65_536


@dataclass
class Options:
    root: str
    seed: int
    seconds: float
    traced: bool
    #: Directory (relative to ``root``, short: it holds a Unix socket)
    #: for throw-away state.
    scratch: str
    setups: int = 5


@dataclass
class Outcome:
    metrics: Dict[str, Reading] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: What the first few failures looked like (printed on stderr).
    failures: List[str] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None

    def count(self, samples: Sequence[object]) -> None:
        self.attempted += len(samples)
        for sample in samples:
            if not sample.ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(sample.describe())

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = Reading(float(value))


@dataclass
class Run:
    """One ``api.run`` on the prepared backend."""

    item: "Input"
    start: float
    end: float
    ok: bool
    traced: bool
    result: api.RunResult

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def tasks(self) -> int:
        return self.item.tasks

    @property
    def serial_s(self) -> float:
        return self.item.serial_s

    def describe(self) -> str:
        return (
            f"api.run: value_total {self.result.value_total} "
            f"(want {self.item.value_total}), tasks {self.result.tasks}, "
            f"cancelled {self.result.cancelled}, "
            f"shm_reused_bytes {self.result.shm_reused_bytes}"
        )


# ---------------------------------------------------------------------------
# Shared arithmetic
# ---------------------------------------------------------------------------


def span(block: Sequence[object]) -> float:
    return block[-1].end - block[0].start


def rate(
    blocks: Sequence[Sequence[object]],
    value: Callable[[object], float],
    scale: float = 1.0,
) -> Reading:
    """``value`` of the block's good operations per second; a failed
    operation takes its time and contributes nothing."""
    return best_block(
        [
            scale * sum(value(s) for s in block if s.ok) / span(block)
            for block in blocks
        ],
        "higher",
        sum(len(block) for block in blocks),
    )


def latency(
    blocks: Sequence[Sequence[object]],
    q: float = 50.0,
    of: Callable[[object], float] = lambda s: s.latency,
) -> Reading:
    """The ``q``-th percentile of each block's good operations, in ms."""
    good = [[of(s) * 1e3 for s in block if s.ok] for block in blocks]
    return best_block(
        [percentile(values, q) for values in good if values],
        "lower",
        sum(len(values) for values in good),
    )


def closed_loop_readings(
    blocks: Sequence[Sequence[object]],
) -> Dict[str, Reading]:
    """The metrics of a closed-loop class, block by block."""
    wall = latency(blocks)
    return {
        "jobs_per_s": rate(blocks, lambda s: 1.0),
        "tasks_per_s": rate(blocks, lambda s: s.tasks),
        "parallel_efficiency": rate(blocks, lambda s: s.serial_s, 1.0 / PROCS),
        "run_wall_ms": wall,
        # Inputs recycle, so every measured operation repeats one the
        # system has already seen; only batch_payload has a cold arm.
        "cached_run_wall_ms": wall,
    }


def open_loop_readings(blocks: Sequence[Sequence[Sample]]) -> Dict[str, Reading]:
    """The metrics of a workload whose every job arrives on a schedule.
    Its wall is send to done; a client submitting back to back would
    get one job per wall, and that is the rate."""
    wall = latency(blocks, of=lambda s: s.end - s.sent)
    good = [s for s in flat(blocks) if s.ok]
    share = len(good) / len(flat(blocks))  # a failed job contributes nothing
    per_s = 1e3 * share / wall.value

    def scaled(factor: float) -> Reading:
        return Reading(
            factor * per_s, factor * per_s * wall.spread / wall.value, wall.samples
        )

    return {
        "submit_to_done_p50_ms": latency(blocks),
        "run_wall_ms": wall,
        "cached_run_wall_ms": wall,
        "jobs_per_s": scaled(1.0),
        "tasks_per_s": scaled(statistics.median(s.tasks for s in good)),
        "parallel_efficiency": scaled(
            statistics.median(s.serial_s for s in good) / PROCS
        ),
    }


def time_again(inputs: Sequence[Input]) -> None:
    """Refresh the (millisecond-sized) serial references now that the
    window is over."""
    for item in inputs:
        item.time_again(passes=3)


def set_end_to_end(
    outcome: Outcome,
    readings: Dict[str, Reading],
    setups: Sequence[float],
    rss: float,
    meter: "Meter",
) -> None:
    outcome.metrics.update(readings)
    outcome.metrics["cpu_us_per_task"] = meter.reading()
    outcome.set("peak_rss_mib", rss)
    outcome.metrics["setup_s"] = Reading(
        statistics.median(setups), samples=len(setups)
    )


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return statistics.median(values), 0.0
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return mid, high - low


def flat(blocks: Sequence[Sequence[T]]) -> List[T]:
    return [item for block in blocks for item in block]


def trace_overhead(samples: Sequence[object]) -> float:
    """(traced - untraced) / untraced over interleaved operations."""
    traced = [s.latency for s in samples if s.ok and s.traced]
    plain = [s.latency for s in samples if s.ok and not s.traced]
    if not traced or not plain:
        return 0.0
    base = statistics.median(plain)
    return (statistics.median(traced) - base) / base


def finish_replay(
    outcome: Outcome, replay: Replay, operations: Sequence[object]
) -> None:
    """The replay's idle half, then its sum against the measured wall
    of the untraced closed-loop ``operations``."""
    replay.run_idle()
    for name, value in replay.metrics.items():
        outcome.set(name, value)
    end_to_end_s = statistics.median(
        s.latency for s in operations if s.ok and not s.traced
    )
    outcome.set(
        "bench.unattributed_share",
        (end_to_end_s - replay.attributed_s) / end_to_end_s,
    )


# ---------------------------------------------------------------------------
# Reference speed and processor time
# ---------------------------------------------------------------------------

#: This VM's processors slow down by a tenth to a third for minutes at a
#: stretch, which is longer than a run: ten batch_compute runs in a row
#: read 628 to 853 ms.  A fixed piece of arithmetic timed before and
#: after an operation slows down with it (the ratio of the two held
#: within 4 % over five minutes in which the run itself moved 24 %), so
#: processor-bound times are reported at the speed the machine has when
#: that arithmetic takes SPEED_REF_S: every set-up, every processor time
#: and batch_compute's walls.  The other walls are not: they follow
#: wake-up and disk latency, which no reference work here tracked.
SPEED_ROWS = 3000
SPEED_REF_S = 0.130


def speed_reference() -> float:
    """Seconds the reference arithmetic takes right now.  It is the
    psirrfan batch kernel's, frozen here so that a change to the
    program's kernels cannot move the yardstick."""
    rays = np.arange(8000, dtype=np.int64)
    began = time.perf_counter()
    for column in range(SPEED_ROWS):
        int(((rays * (column * 29) + rays * rays) % 193).sum())
    return time.perf_counter() - began


class Meter:
    """Times steps at reference speed and counts the processor time
    ``pids`` (the system under test) spend on them, per task."""

    def __init__(self, pids: Sequence[int] = ()):
        self.pids = list(pids)
        #: The last reference timing: back-to-back steps share one.
        self.lap: List[float] = []
        #: One entry per block: how slow the machine was around it, and
        #: the microseconds of processor time a task took.
        self.slow: List[float] = []
        self.cpu_us: List[float] = []

    def timed(self, step: Callable[[], T]) -> Tuple[T, float, float]:
        """``step()``, how slow the machine was around it (the mean of
        the reference timings before and after over SPEED_REF_S), and
        the processor seconds ``pids`` used meanwhile."""
        before = self.lap[0] if self.lap else speed_reference()
        used = host.cpu_seconds(self.pids)
        result = step()
        used = host.cpu_seconds(self.pids) - used
        self.lap[:] = [speed_reference()]
        return result, (before + self.lap[0]) / (2.0 * SPEED_REF_S), used

    def block(self, step: Callable[[], List[T]]) -> List[T]:
        """A step that returns the operations it did."""
        done, slow, used = self.timed(step)
        tasks = sum(op.tasks for op in done if op.ok)
        self.slow.append(slow)
        if tasks:
            self.cpu_us.append(1e6 * used / slow / tasks)
        return done

    def reading(self) -> Reading:
        return Reading(*median_iqr(self.cpu_us), len(self.cpu_us))


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------


def job_spec(
    target: str, priority: int, seed: int, shape: Dict[str, int]
) -> JobSpec:
    """Generate one input and its reference answer."""
    ops, _, _ = api.resolve_ops(target, RunConfig(seed=seed), shape)
    return JobSpec(
        target=target,
        priority=priority,
        overrides={"seed": seed, **shape},
        input=Input.of(ops, passes=2 if os.path.exists(target) else 5),
    )


def job_specs(
    rng: random.Random, count: int, target: str, priority: int, shape: Dict[str, int]
) -> List[JobSpec]:
    seeds = rng.sample(range(1 << 20), count)
    return [job_spec(target, priority, seed, shape) for seed in seeds]


@contextlib.contextmanager
def live_daemon(
    opts: Options, first: JobSpec
) -> Iterator[Tuple[Daemon, List[float]]]:
    """Set the daemon up ``opts.setups`` times (timed at reference
    speed), keep the last one."""
    setups: List[float] = []
    daemon: Optional[Daemon] = None
    meter = Meter()
    try:
        for index in range(opts.setups):
            if daemon is not None:
                daemon.discard()
            daemon = Daemon(opts.root, os.path.join(opts.scratch, f"d{index}"))
            try:
                elapsed, slow, _ = meter.timed(lambda: daemon.start(first))
                setups.append(elapsed / slow)
            except Exception as error:
                raise RuntimeError(
                    f"daemon set-up failed: {error}\n{daemon.log_tail()}"
                ) from error
        yield daemon, setups
    finally:
        if daemon is not None:
            daemon.stop()


def serve_rep_job(
    daemon: Daemon, sample: Sample, recorder: SpanRecorder
) -> RepJob:
    """The replay's inputs: one finished job's record and its ops."""
    job_id = str(sample.job["id"])
    with recorder.span("status", "serve.client", request=job_id):
        record = daemon.client.status(job_id)["job"]
    spec = sample.spec
    shape = {k: v for k, v in spec.overrides.items() if k != "seed"}
    cfg = MP_CFG.with_(seed=int(spec.overrides["seed"]))
    scratch = os.path.join(daemon.state_dir, "replay")
    return RepJob(
        request=job_id,
        target=spec.target,
        overrides=shape,
        cfg=cfg.with_(checkpoint_dir=scratch),
        ops=spec.input.ops,
        chunks=int(record["result"]["chunks"]),
        checkpoint_dir=scratch,
        messages=(
            {
                "op": "submit",
                "target": spec.target,
                "priority": spec.priority,
                "overrides": spec.overrides,
            },
            {"ok": True, "job": dict(record, state="admitted", result=None)},
            {"op": "wait", "job": job_id, "timeout": serveload.WAIT_TIMEOUT},
            {"ok": True, "job": record},
        ),
        compiles_source=os.path.exists(spec.target),
    )


def serve_layer_readings(
    outcome: Outcome,
    daemon: Daemon,
    closed: Sequence[Sample],
    opened: Sequence[Sample],
) -> None:
    """Per-layer numbers that come from the daemon's job records."""
    outcome.set(
        "serve.server.queue_wait_p50_ms",
        statistics.median(
            (s.job["started_at"] - s.job["submitted_at"]) * 1e3
            for s in opened
            if s.ok
        ),
    )
    outcome.set(
        "serve.server.reply_overhead_p50_ms",
        statistics.median(
            (s.end - s.sent) * 1e3
            - (s.job["finished_at"] - s.job["submitted_at"]) * 1e3
            for s in opened
            if s.ok
        ),
    )
    good = [s for s in closed if s.ok]
    outcome.set(
        "serve.server.session_overhead_p50_ms",
        statistics.median(
            (s.job["finished_at"] - s.job["started_at"] - s.job["result"]["makespan"])
            * 1e3
            for s in good
        ),
    )
    outcome.set(
        "serve.server.rejected",
        sum(1 for s in list(closed) + list(opened) if s.refused),
    )
    outcome.set(
        "serve.client.submit_to_done_p95_ms",
        percentile([s.latency * 1e3 for s in opened if s.ok], 95),
    )
    outcome.set(
        "bench.generator_lag_p95_ms",
        percentile([(s.sent - s.start) * 1e3 for s in opened], 95),
    )
    sizes = []
    for sample in good[-20:]:
        path = os.path.join(
            daemon.state_dir, "jobs", str(sample.job["id"]), "journal.jsonl"
        )
        sizes.append(os.path.getsize(path))
    outcome.set("runtime.checkpoint.journal_bytes_per_job", statistics.median(sizes))
    chunks = statistics.median(s.job["result"]["chunks"] for s in good)
    outcome.set("runtime.backends.mp.chunks_per_run", chunks)
    outcome.set(
        "runtime.backends.mp.tasks_per_chunk_mean",
        statistics.median(s.tasks for s in good) / chunks,
    )
    outcome.set(
        "runtime.backends.mp.worker_busy_share",
        sum(s.job["result"]["total_work"] for s in good)
        / (PROCS * sum(s.latency for s in good)),
    )


def warm_up(daemon: Daemon, specs: Sequence[JobSpec], outcome: Outcome) -> float:
    """One closed-loop pass over ``specs``, then the daemon's peak
    memory.  A fixed number of jobs: the daemon keeps a record per job,
    so memory read after a fixed *time* would grow with the very
    throughput it sits beside."""
    off = SpanRecorder()
    outcome.count([serveload.run_job(daemon.client, spec, off) for spec in specs])
    return daemon.peak_rss_mib()


def serve_small(opts: Options) -> Outcome:
    """Short default ``fig1`` jobs.  Untraced: an open loop for the
    whole window, every end-to-end metric from its jobs (the closed
    loop's rate did not repeat, see README).  Traced: closed-loop and
    open-loop blocks by turns, so a disturbance lasting seconds cannot
    swallow one phase."""
    rng = random.Random(opts.seed)
    specs = job_specs(rng, SMALL_INPUTS, "fig1", 0, {})
    jobs = itertools.cycle(specs)
    recorder = SpanRecorder()
    outcome = Outcome(recorder=recorder)
    closed: List[List[Sample]] = []
    opened: List[List[Sample]] = []
    with live_daemon(opts, specs[0]) as (daemon, setups):
        client = daemon.client
        now = time.perf_counter
        rss = warm_up(daemon, specs[:WARM_JOBS], outcome)
        if not opts.traced:
            meter = Meter(daemon.tree())

            def one_block() -> List[Sample]:
                start = now() + 0.01
                return serveload.open_loop(
                    client, jobs, SMALL_RATE, start,
                    start + opts.seconds / BLOCKS, recorder,
                )

            opened = [meter.block(one_block) for _ in range(BLOCKS)]
            outcome.count(flat(opened))
            time_again([spec.input for spec in specs])
            set_end_to_end(
                outcome, open_loop_readings(opened), setups, rss, meter
            )
            return outcome
        for _ in range(BLOCKS):
            closed.append(
                serveload.closed_loop(
                    client, jobs, now() + 0.3 * opts.seconds / BLOCKS,
                    recorder, alternate_tracing=True,
                )
            )
            recorder.enabled = True
            start = now() + 0.01
            opened.append(
                serveload.open_loop(
                    client, jobs, SMALL_RATE, start,
                    start + 0.3 * opts.seconds / BLOCKS, recorder,
                )
            )
            recorder.enabled = False
        outcome.count(flat(closed))
        outcome.count(flat(opened))
        outcome.metrics["serve.server.closed1_jobs_per_s"] = rate(
            closed, lambda s: 1.0
        )
        pair = two_clients(client, jobs, max(2.0, 0.15 * opts.seconds))
        outcome.count(pair)
        outcome.set(
            "serve.server.concurrent2_jobs_per_s",
            sum(1 for s in pair if s.ok)
            / (max(s.end for s in pair) - min(s.start for s in pair)),
        )
        replay = serve_traced(outcome, daemon, flat(closed), flat(opened))
    finish_replay(outcome, replay, flat(closed))
    return outcome


def serve_traced(
    outcome: Outcome,
    daemon: Daemon,
    closed: Sequence[Sample],
    opened: Sequence[Sample],
) -> Replay:
    """What a traced serve pass does while its daemon is still up."""
    serve_layer_readings(outcome, daemon, closed, opened)
    outcome.set("bench.trace_overhead_share", trace_overhead(closed))
    sample = next(s for s in reversed(closed) if s.ok)
    replay = Replay(
        outcome.recorder, serve_rep_job(daemon, sample, outcome.recorder)
    )
    replay.run(daemon.client)
    return replay


def two_clients(
    client: object, jobs: Iterator[JobSpec], seconds: float
) -> List[Sample]:
    """Two closed loops side by side (informational: bimodal at HEAD)."""
    lock = threading.Lock()

    def locked() -> Iterator[JobSpec]:
        while True:
            with lock:
                spec = next(jobs)
            yield spec

    until = time.perf_counter() + seconds
    results: List[List[Sample]] = [[], []]

    def loop(slot: int) -> None:
        results[slot] = serveload.closed_loop(
            client, locked(), until, SpanRecorder()
        )

    threads = [threading.Thread(target=loop, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results[0] + results[1]


def serve_mixed(opts: Options) -> Outcome:
    """Big priority-0 jobs in a closed loop while small priority-5 jobs
    arrive on a schedule: the ration, grant and revoke paths at work.
    Untraced the window is ten blocks with a reference timing between
    them; traced it is one."""
    rng = random.Random(opts.seed)
    small = job_specs(rng, SMALL_INPUTS, "fig1", 5, {})
    big = job_specs(rng, BIG_INPUTS, FIG1_SOURCE, 0, BIG_JOB)
    small_jobs, big_jobs = itertools.cycle(small), itertools.cycle(big)
    recorder = SpanRecorder()
    outcome = Outcome(recorder=recorder)
    bigs: List[List[Sample]] = []
    smalls: List[List[Sample]] = []
    with live_daemon(opts, small[0]) as (daemon, setups):
        client = daemon.client
        rss = warm_up(daemon, big + small[:WARM_JOBS], outcome)

        def both_loops(seconds: float) -> List[Sample]:
            start = time.perf_counter() + 0.05
            end = start + seconds
            bigs.append([])
            thread = threading.Thread(
                target=lambda: bigs[-1].extend(
                    serveload.closed_loop(
                        client, big_jobs, end, recorder,
                        alternate_tracing=opts.traced,
                    )
                ),
                name="closed-loop-big",
            )
            thread.start()
            try:
                smalls.append(
                    serveload.open_loop(
                        client, small_jobs, MIXED_RATE, start, end, recorder
                    )
                )
            finally:
                thread.join()
            return bigs[-1] + smalls[-1]

        if opts.traced:
            outcome.count(both_loops(0.6 * opts.seconds))
            small_ms = [s.latency * 1e3 for s in smalls[0] if s.ok]
            outcome.set("serve.server.preempt_p50_ms", percentile(small_ms, 50))
            outcome.set("serve.server.preempt_p95_ms", percentile(small_ms, 95))
            replay = serve_traced(outcome, daemon, bigs[0], smalls[0])
        else:
            meter = Meter(daemon.tree())
            for _ in range(BLOCKS):
                outcome.count(
                    meter.block(lambda: both_loops(opts.seconds / BLOCKS))
                )
            time_again([spec.input for spec in big + small])
            # A block's rates count the small jobs due while its big
            # jobs ran.
            both = [
                block + [
                    s for s in opened
                    if block[0].start <= s.start < block[-1].end
                ]
                for block, opened in zip(bigs, smalls)
            ]
            readings = closed_loop_readings(bigs)
            readings["tasks_per_s"] = mixed_rate(bigs, both, lambda s: s.tasks)
            readings["parallel_efficiency"] = mixed_rate(
                bigs, both, lambda s: s.serial_s / PROCS
            )
            # The small class's own p50 does not repeat (see README,
            # "Rejected as noisy"); it is serve.server.preempt_p50_ms.
            readings["submit_to_done_p50_ms"] = readings["run_wall_ms"]
            set_end_to_end(outcome, readings, setups, rss, meter)
    if opts.traced:
        finish_replay(outcome, replay, bigs[0])
    return outcome


def mixed_rate(
    blocks: Sequence[Sequence[Sample]],
    both: Sequence[Sequence[Sample]],
    value: Callable[[Sample], float],
) -> Reading:
    """Both classes' ``value`` per second of the big jobs' block."""
    return best_block(
        [
            sum(value(s) for s in members if s.ok) / span(block)
            for block, members in zip(blocks, both)
        ],
        "higher",
        sum(len(members) for members in both),
    )


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------

#: Differs only in the pool it prepares; runs take MP_CFG either way.
PAYLOAD_CFG = MP_CFG.with_(pool=PoolConfig(shm_cache_bytes=CACHE_BYTES))


def run_once(
    backend: object,
    item: Input,
    recorder: SpanRecorder,
    reused_bytes: Optional[int] = None,
) -> Run:
    """One timed ``api.run``; with ``reused_bytes`` the run must also
    have taken exactly that much from the segment cache."""
    traced = recorder.enabled
    start = time.perf_counter()
    with recorder.span("api.run", "api"):
        result = api.run(item.ops, MP_CFG, executor=backend)
    end = time.perf_counter()
    ok = (
        result.value_total == item.value_total
        and result.tasks == item.tasks
        and not result.cancelled
        and (reused_bytes is None or result.shm_reused_bytes == reused_bytes)
    )
    return Run(item, start, end, ok, traced, result)


@contextlib.contextmanager
def prepared_backend(
    opts: Options, first: Input, cfg: RunConfig = MP_CFG
) -> Iterator[Tuple[object, List[float]]]:
    """``api.prepared`` until the first run is done, ``opts.setups``
    times (timed at reference speed); the last pool stays up."""
    setups: List[float] = []
    meter = Meter()

    def set_up() -> Tuple[object, object, float]:
        began = time.perf_counter()
        context = api.prepared(cfg)
        backend = context.__enter__()
        try:
            run = run_once(backend, first, SpanRecorder())
            elapsed = time.perf_counter() - began
            if not run.ok:
                raise RuntimeError("first run on a fresh pool was wrong")
        except BaseException:
            context.__exit__(None, None, None)
            raise
        return context, backend, elapsed

    with contextlib.ExitStack() as stack:
        for index in range(opts.setups):
            (context, backend, elapsed), slow, _ = meter.timed(set_up)
            setups.append(elapsed / slow)
            if index == opts.setups - 1:
                stack.push(context)
            else:
                context.__exit__(None, None, None)
        yield backend, setups


def own_tree() -> List[int]:
    """This process, which is the coordinator, and the pool's workers."""
    return [os.getpid()] + host.descendants(os.getpid())


def run_until(
    backend: object,
    items: Iterator[Input],
    seconds: float,
    recorder: SpanRecorder,
    alternate_tracing: bool,
    reused_bytes: Optional[int] = None,
) -> List[Run]:
    return repeat_until(
        lambda: run_once(backend, next(items), recorder, reused_bytes),
        time.perf_counter() + seconds, recorder, alternate_tracing,
    )


def batch_layer_readings(outcome: Outcome, runs: Sequence[Run]) -> None:
    good = [run for run in runs if run.ok]
    median = statistics.median
    outcome.set(
        "runtime.backends.mp.startup_gap_ms",
        median((run.latency - run.result.makespan) * 1e3 for run in good),
    )
    outcome.set(
        "runtime.backends.mp.worker_busy_share",
        median(
            sum(op.work for op in run.result.per_op.values())
            / (PROCS * run.latency)
            for run in good
        ),
    )
    chunks = median(run.result.chunks for run in good)
    outcome.set("runtime.backends.mp.chunks_per_run", chunks)
    outcome.set(
        "runtime.backends.mp.tasks_per_chunk_mean",
        median(run.result.tasks / run.result.chunks for run in good),
    )
    outcome.set(
        "runtime.backends.mp.batched_chunk_share",
        median(run.result.batched_chunks / run.result.chunks for run in good),
    )
    outcome.set(
        "runtime.backends.shm.bytes_shipped_per_run",
        median(run.result.bytes_shipped for run in good),
    )


def hit_share(runs: Sequence[Run]) -> float:
    """Payload bytes taken from the segment cache / payload bytes."""
    reused = sum(run.result.shm_reused_bytes for run in runs)
    laid_out = sum(run.result.bytes_shipped for run in runs)
    return reused / (reused + laid_out) if reused + laid_out else 0.0


def batch_rep_job(run: Run, miss: bool) -> RepJob:
    return RepJob(
        request=f"run@{run.start:.3f}",
        target=run.item.ops,
        overrides={},
        cfg=MP_CFG,
        ops=run.item.ops,
        chunks=run.result.chunks,
        shm="shm" in run.result.data_plane.values(),
        shm_miss=miss,
    )


def batch_readings(blocks: Sequence[Sequence[Run]]) -> Dict[str, Reading]:
    readings = closed_loop_readings(blocks)
    # No open loop: the caller that waits for a result is the run.
    readings["submit_to_done_p50_ms"] = readings["run_wall_ms"]
    return readings


def scaled_readings(
    runs: Sequence[Run], slow: Sequence[float], serial_s: float
) -> Dict[str, Reading]:
    """batch_compute's walls at reference speed: each divided by how
    slow the machine was around it, then the median (a scaled wall errs
    both ways, so the best one is no better a guess)."""
    walls = [run.latency / by for run, by in zip(runs, slow) if run.ok]
    wall, iqr = median_iqr(walls)
    done = len(walls) / len(runs)  # a failed run contributes nothing

    def reading(value: float) -> Reading:
        return Reading(value, value * iqr / wall, len(runs))

    return {
        "jobs_per_s": reading(done / wall),
        "tasks_per_s": reading(done * runs[0].tasks / wall),
        "parallel_efficiency": reading(done * serial_s / (PROCS * wall)),
        "run_wall_ms": reading(wall * 1e3),
        "cached_run_wall_ms": reading(wall * 1e3),
        "submit_to_done_p50_ms": reading(wall * 1e3),
    }


def batch_compute(opts: Options) -> Outcome:
    """One big psirrfan sweep, run back to back: kernel and chunk
    dispatch, nothing else.  Untraced, every run sits between two
    reference timings and its wall is at reference speed."""
    rng = random.Random(opts.seed)
    item = Input.of(
        psirrfan_ops(
            columns=16384, elements=8000, post_elements=2666,
            seed=rng.randrange(1 << 20),
        ),
        passes=1,
    )
    recorder = SpanRecorder()
    outcome = Outcome(recorder=recorder)
    with prepared_backend(opts, item) as (backend, setups):
        run_once(backend, item, recorder)  # second run: caches are warm
        rss = host.peak_rss_mib(os.getpid())
        if opts.traced:
            runs = run_until(
                backend, itertools.repeat(item), 0.5 * opts.seconds, recorder,
                alternate_tracing=True,
            )
            outcome.count(runs)
            batch_layer_readings(outcome, runs)
            outcome.set("runtime.backends.shm.cache_hit_share.hit_arm", hit_share(runs))
            outcome.set("bench.trace_overhead_share", trace_overhead(runs))
            replay = Replay(recorder, batch_rep_job(runs[-1], miss=False))
            replay.run()
        else:
            meter = Meter(own_tree())

            def serial_pass() -> float:
                seconds, slow, _ = meter.timed(lambda: serial_batch(item.ops)[0])
                return seconds / slow

            serial = [serial_pass(), serial_pass()]
            runs = flat(
                repeat_until(
                    lambda: meter.block(
                        lambda: [run_once(backend, item, recorder)]
                    ),
                    time.perf_counter() + opts.seconds, recorder,
                )
            )
            serial += [serial_pass(), serial_pass()]
            outcome.count(runs)
            readings = scaled_readings(runs, meter.slow, statistics.median(serial))
            set_end_to_end(outcome, readings, setups, rss, meter)
    if opts.traced:
        finish_replay(outcome, replay, runs)
    return outcome


def batch_payload(opts: Options) -> Outcome:
    """16 MiB of rows and a few ms of kernel per run, in two arms taken
    by turns: the shm plane's copy path (miss) and its hash-and-reuse
    path (hit).

    The payload sets are generated once and recycled: freshly touched
    memory made walls swing by an order of magnitude on this VM.  The
    arms use different sets, so the hit arm's residents are simply the
    next segments the miss arm evicts and every miss-arm run misses.
    """
    rng = random.Random(opts.seed)
    seeds = rng.sample(range(1 << 20), MISS_SETS + HIT_SETS)
    sets = [
        Input.of(
            array_ops(tasks=PAYLOAD_TASKS, row_elements=PAYLOAD_ROW, seed=seed),
            passes=3,
        )
        for seed in seeds
    ]
    miss_sets = itertools.cycle(sets[:MISS_SETS])
    hit_sets = sets[MISS_SETS:]
    nbytes = PAYLOAD_TASKS * PAYLOAD_ROW * 8
    recorder = SpanRecorder()
    outcome = Outcome(recorder=recorder)
    seconds = opts.seconds * (0.25 if opts.traced else 0.5) / PAYLOAD_ROUNDS
    miss: List[List[Run]] = []
    hit: List[List[Run]] = []
    with prepared_backend(opts, sets[0], PAYLOAD_CFG) as (backend, setups):
        cache = backend.pool.segment_cache
        for _ in range(MISS_SETS):  # fills the cache: from here on, LRU
            run_once(backend, next(miss_sets), recorder)
        rss = host.peak_rss_mib(os.getpid())
        evictions = 0
        meter = Meter(own_tree())

        def one_round() -> List[Run]:
            nonlocal evictions
            before = cache.stats()["evictions"]
            miss.append(
                run_until(
                    backend, miss_sets, seconds, recorder, opts.traced,
                    reused_bytes=0,
                )
            )
            evictions += cache.stats()["evictions"] - before
            # Brings the hit arm's sets back in.
            warm = [run_once(backend, item, recorder) for item in hit_sets]
            hit.append(
                run_until(
                    backend, itertools.cycle(hit_sets), seconds, recorder,
                    opts.traced, reused_bytes=nbytes,
                )
            )
            return miss[-1] + warm + hit[-1]

        for _ in range(PAYLOAD_ROUNDS):
            meter.block(one_round)
        outcome.count(flat(miss))
        outcome.count(flat(hit))
        if opts.traced:
            batch_layer_readings(outcome, flat(miss))
            prefix = "runtime.backends.shm."
            outcome.set(prefix + "cache_hit_share.miss_arm", hit_share(flat(miss)))
            outcome.set(prefix + "cache_hit_share.hit_arm", hit_share(flat(hit)))
            outcome.set(prefix + "evictions_per_run", evictions / len(flat(miss)))
            outcome.set("bench.trace_overhead_share", trace_overhead(flat(miss)))
            replay = Replay(recorder, batch_rep_job(miss[-1][-1], miss=True))
            replay.run()
        else:
            time_again(sets)
            # Two blocks a round: ten a window, like everything else.
            readings = batch_readings(
                [half for block in miss for half in split(block, 2)]
            )
            readings["cached_run_wall_ms"] = latency(
                [half for block in hit for half in split(block, 2)]
            )
            set_end_to_end(outcome, readings, setups, rss, meter)
    if opts.traced:
        finish_replay(outcome, replay, flat(miss))
    return outcome


WORKLOADS: Dict[str, Callable[[Options], Outcome]] = {
    "serve_small": serve_small,
    "serve_mixed": serve_mixed,
    "batch_compute": batch_compute,
    "batch_payload": batch_payload,
}
