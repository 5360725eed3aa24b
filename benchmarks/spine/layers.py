"""The layer replay: each layer's public functions, called in pipeline
order with one representative job's real inputs and counts.

A layer is a module under ``src/repro``.  Every call sits in a span
whose ``layer`` names that module, so the per-layer table is the
spans' medians; nothing here looks inside the program under test.
The replay also adds up what those costs predict for the job
(``attributed_s``): the distance to the measured end-to-end median is
the dark time that in-program tracing will have to explain.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import socket
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.api as api
from repro.apps.kernels import RANGE_SUM
from repro.runtime.allocation import allocate_many
from repro.runtime.backends import shm
from repro.runtime.backends.mp import real_machine_config
from repro.runtime.checkpoint import (
    ChunkJournal,
    ChunkRecord,
    RunManifest,
    init_checkpoint_dir,
)
from repro.runtime.config import RunConfig
from repro.runtime.cost_model import CostFunction
from repro.runtime.estimates import FinishingTimeEstimator
from repro.runtime.sampling import profile_from_costs
from repro.runtime.taper import TaperPolicy
from repro.runtime.task import RealOp
from repro.serve.client import ServeClient
from repro.serve.jobs import Job, JobQueue
from repro.serve.protocol import recv_message, send_message

from .trace import SpanRecorder

MIB = float(2**20)
#: Everything is sized for nproc = 2.
PROCS = 2
MP_CFG = RunConfig(backend="mp", processors=PROCS)


@dataclass
class RepJob:
    """One real job or run of the workload, and how it went."""

    request: str
    #: What ``resolve_ops`` is given: a workload name, a source path,
    #: or the explicit operation list.
    target: object
    overrides: Dict[str, object]
    cfg: RunConfig
    ops: List[RealOp]
    #: Chunks the real run dispatched.
    chunks: int
    #: The run laid its payloads out in shared memory.
    shm: bool = False
    #: ... and found none of them in the segment cache.
    shm_miss: bool = False
    #: The job journals every chunk (serve); a scratch directory on the
    #: state dir's filesystem to time that in.
    checkpoint_dir: Optional[str] = None
    #: The four protocol messages of the job (serve), else empty.
    messages: Sequence[Dict[str, object]] = ()
    compiles_source: bool = False

    @property
    def work_ops(self) -> List[RealOp]:
        """The ops that have tasks (a compiled graph also carries
        zero-task placeholder nodes)."""
        return [op for op in self.ops if op.size]


def serial_batch(ops: Sequence[RealOp]) -> Tuple[float, float]:
    """One in-process ``batch_fn`` pass: ``(seconds, value_total)``.
    The honest serial baseline, and the correctness reference."""
    began = time.perf_counter()
    total = 0.0
    for op in ops:
        if not op.size:
            continue  # a compiled graph's zero-task placeholder nodes
        out = np.empty(op.size, dtype=np.float64)
        op.kernel.batch_fn(op.payloads, out)
        total += float(out.sum())
    return time.perf_counter() - began, total


@dataclass
class Input:
    """One operation set and what a correct run of it must report."""

    ops: List[RealOp]
    value_total: float
    #: Seconds one in-process ``batch_fn`` pass over the ops takes.
    serial_s: float

    @classmethod
    def of(cls, ops: List[RealOp], passes: int) -> "Input":
        seconds, value_total = min(serial_batch(ops) for _ in range(passes))
        return cls(ops, value_total, seconds)

    def time_again(self, passes: int = 1) -> None:
        """More serial passes, keeping the fastest: a disturbance only
        ever slows one, and passes a window apart rarely share it."""
        for _ in range(passes):
            self.serial_s = min(self.serial_s, serial_batch(self.ops)[0])

    @property
    def tasks(self) -> int:
        return sum(op.size for op in self.ops)


def noop_ops(tasks: int) -> List[RealOp]:
    """Tasks that sum an empty range: the round trip without a kernel."""
    return [
        RealOp(name="noop", kernel=RANGE_SUM, payloads=[(k, 0) for k in range(tasks)])
    ]


class Replay:
    """Times calls under one root span and keeps the medians."""

    def __init__(self, recorder: SpanRecorder, job: RepJob):
        self.recorder = recorder
        self.job = job
        self.metrics: Dict[str, float] = {}
        self.attributed_s = 0.0

    def timed(
        self,
        name: str,
        layer: str,
        call: Callable[[], object],
        reps: int,
        inner: int = 1,
    ) -> float:
        """Median seconds of one ``call`` over ``reps`` spans of
        ``inner`` calls each."""
        samples = []
        for _ in range(reps):
            with self.recorder.span(name, layer, self.job.request):
                began = time.perf_counter()
                for _ in range(inner):
                    call()
                samples.append((time.perf_counter() - began) / inner)
        return statistics.median(samples)

    def attribute(self, seconds: float, count: float = 1.0) -> None:
        self.attributed_s += seconds * count

    # -- serve front end -----------------------------------------------------

    def rpc(self, client: ServeClient) -> None:
        rtt = self.timed("ping", "serve.protocol", client.ping, reps=200)
        self.metrics["serve.protocol.rpc_rtt_us"] = rtt * 1e6
        self.attribute(rtt, 2)  # submit and wait

    def codec(self) -> None:
        left, right = socket.socketpair()
        try:
            def exchange() -> None:
                for message in self.job.messages:
                    send_message(left, message)
                    recv_message(right)

            cost = self.timed("codec", "serve.protocol", exchange, reps=100)
        finally:
            left.close()
            right.close()
        self.metrics["serve.protocol.codec_us"] = cost * 1e6

    def job_queue(self) -> None:
        jobs = [Job(id=f"job-{k:04d}", target="fig1") for k in range(65)]
        jobs_queue = JobQueue(limit=128)
        for job in jobs[:64]:
            jobs_queue.offer(job)

        def offer_pop() -> None:
            jobs_queue.offer(jobs[64])
            jobs_queue.pop()

        cost = self.timed(
            "offer_pop", "serve.jobs", offer_pop, reps=20, inner=200
        )
        self.metrics["serve.jobs.offer_pop_us"] = cost * 1e6
        self.attribute(cost)

    # -- admission -----------------------------------------------------------

    def resolve(self) -> None:
        job = self.job
        cost = self.timed(
            "resolve_ops",
            "api",
            lambda: api.resolve_ops(job.target, job.cfg, job.overrides),
            reps=20,
        )
        self.metrics["api.resolve_ops_ms"] = cost * 1e3
        self.attribute(cost)
        if job.compiles_source:
            with open(str(job.target)) as handle:
                source = handle.read()
            cost = self.timed(
                "compile", "compiler", lambda: api.compile(source), reps=10
            )
            # Not attributed again: resolve_ops above already compiled.
            self.metrics["compiler.compile_fig1_ms"] = cost * 1e3

    def checkpoint(self) -> None:
        job = self.job
        if job.checkpoint_dir is None:
            return
        fresh = os.path.join(job.checkpoint_dir, "init")

        def init_dir() -> None:
            manifest = RunManifest.build(job.cfg, job.ops)
            init_checkpoint_dir(fresh, manifest)

        cost = self.timed("init_dir", "runtime.checkpoint", init_dir, reps=20)
        self.metrics["runtime.checkpoint.init_dir_ms"] = cost * 1e3
        self.attribute(cost)
        record = ChunkRecord(
            op_index=0,
            label=job.work_ops[0].name,
            worker=0,
            time=0.01,
            tasks=[(k, 1e-4, float(k), 0) for k in range(12)],
        )
        costs = {}
        for name, interval, reps in (
            ("append", 10**9, 200),
            ("append_fsync", 1, 100),
        ):
            journal = ChunkJournal(
                os.path.join(job.checkpoint_dir, name), sync_interval=interval
            )
            try:
                costs[name] = self.timed(
                    name,
                    "runtime.checkpoint",
                    lambda: journal.append(record),
                    reps=reps,
                )
            finally:
                journal.close()
            self.metrics[f"runtime.checkpoint.{name}_us"] = costs[name] * 1e6
        # The daemon journals with checkpoint_interval = 1: every chunk
        # pays the fsync.
        self.attribute(costs["append_fsync"], job.chunks)

    # -- data plane ----------------------------------------------------------

    def data_plane(self) -> None:
        job = self.job
        if not job.shm:
            return
        rows = [op.payloads for op in job.work_ops]
        plan_s = self.timed(
            "plan_payloads",
            "runtime.backends.shm",
            lambda: [shm.plan_payloads(payloads) for payloads in rows],
            reps=7,
        )
        planned = [shm.plan_payloads(payloads) for payloads in rows]
        mib = sum(stacked.nbytes for _, stacked in planned) / MIB
        fingerprint_s = self.timed(
            "fingerprint",
            "runtime.backends.shm",
            lambda: [shm.SegmentCache.fingerprint(*plan) for plan in planned],
            reps=7,
        )
        map_samples = []
        for _ in range(7):
            plane = shm.ShmDataPlane()
            try:
                with self.recorder.span(
                    "add_op", "runtime.backends.shm", job.request
                ):
                    began = time.perf_counter()
                    for index, (mode, stacked) in enumerate(planned):
                        plane.add_op(index, mode, stacked)
                    map_samples.append(time.perf_counter() - began)
            finally:
                plane.close()
        map_s = statistics.median(map_samples)
        plane = shm.ShmDataPlane()
        try:
            descriptors = [
                plane.add_op(index, mode, stacked)
                for index, (mode, stacked) in enumerate(planned)
            ]
            attach_s = self.timed(
                "attach_op",
                "runtime.backends.shm",
                lambda: [shm.attach_op(d).close() for d in descriptors],
                reps=30,
            )
        finally:
            plane.close()
        pickle_s = self.timed(
            "pickle",
            "runtime.backends.shm",
            lambda: pickle.loads(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)),
            reps=5,
        )
        prefix = "runtime.backends.shm."
        self.metrics[prefix + "plan_ms_per_mib"] = plan_s * 1e3 / mib
        self.metrics[prefix + "fingerprint_ms_per_mib"] = fingerprint_s * 1e3 / mib
        self.metrics[prefix + "map_ms_per_mib"] = map_s * 1e3 / mib
        self.metrics[prefix + "attach_us"] = attach_s * 1e6 / len(planned)
        self.metrics[prefix + "pickle_ms_per_mib"] = pickle_s * 1e3 / mib
        self.attribute(plan_s + fingerprint_s + attach_s)
        if job.shm_miss:
            self.attribute(map_s)

    # -- scheduling ----------------------------------------------------------

    def allocation(self) -> None:
        job = self.job
        profiles = [
            profile_from_costs([cost * job.cfg.time_scale for cost in op.costs])
            for op in job.work_ops
        ]
        for suffix, k, p in (("k2_p2", 2, 2), ("k8_p16", 8, 16)):
            machine = real_machine_config(p)
            finish = [
                FinishingTimeEstimator(profiles[i % len(profiles)], machine).finish
                for i in range(k)
            ]
            cost = self.timed(
                "allocate_many",
                "runtime.allocation",
                lambda: allocate_many(p, finish),
                reps=50,
            )
            self.metrics[f"runtime.allocation.allocate_many_us.{suffix}"] = cost * 1e6
            if suffix == "k2_p2" and len(job.work_ops) > 1:
                self.attribute(cost)

    def taper(self) -> None:
        """``next_chunk`` down each op's remaining-count sequence."""
        policy = TaperPolicy()
        plans = []
        for op in self.job.work_ops:
            costs = CostFunction()
            for index, cost in enumerate(op.costs[:32]):
                costs.observe(index, cost)
            plans.append((op.size, costs))
        calls = [0]

        def sequence() -> None:
            calls[0] = 0
            for size, costs in plans:
                remaining = size
                while remaining > 0:
                    remaining -= policy.next_chunk(
                        remaining, PROCS, costs, size - remaining
                    )
                    calls[0] += 1

        total = self.timed("next_chunk", "runtime.taper", sequence, reps=20)
        cost = total / max(calls[0], 1)
        self.metrics["runtime.taper.next_chunk_us"] = cost * 1e6
        self.attribute(cost, self.job.chunks)

    # -- the pool ------------------------------------------------------------

    def pool(self) -> None:
        """Fixed costs of the mp backend, on an otherwise idle machine
        (the caller has stopped the daemon or left its own pool)."""
        starts = []
        for last in (False, False, True):
            with self.recorder.span(
                "pool_start", "runtime.backends.mp", self.job.request
            ):
                began = time.perf_counter()
                context = api.prepared(MP_CFG)
                backend = context.__enter__()
                starts.append(time.perf_counter() - began)
            try:
                if last:
                    self._pool_round_trips(backend)
            finally:
                context.__exit__(None, None, None)
        self.metrics["runtime.backends.mp.pool_start_ms"] = (
            statistics.median(starts) * 1e3
        )

    def _pool_round_trips(self, backend: object) -> None:
        one = noop_ops(1)
        api.run(one, MP_CFG, executor=backend)
        fixed = self.timed(
            "run_fixed",
            "runtime.backends.mp",
            lambda: api.run(one, MP_CFG, executor=backend),
            reps=30,
        )
        self.metrics["runtime.backends.mp.run_fixed_ms"] = fixed * 1e3
        self.attribute(fixed)
        many = noop_ops(2000)
        per_chunk_cfg = MP_CFG.with_(policy="self", batching="off")
        per_chunk = []
        for _ in range(5):
            with self.recorder.span(
                "chunk_rtt", "runtime.backends.mp", self.job.request
            ):
                began = time.perf_counter()
                result = api.run(many, per_chunk_cfg, executor=backend)
                wall = time.perf_counter() - began
            per_chunk.append((wall - fixed) / result.chunks)
        rtt = statistics.median(per_chunk)
        self.metrics["runtime.backends.mp.chunk_rtt_us"] = rtt * 1e6
        self.attribute(rtt, self.job.chunks)

    # -- the kernel ----------------------------------------------------------

    def kernels(self) -> None:
        job = self.job
        def one_pass() -> None:
            serial_batch(job.ops)

        whole = self.timed("batch_fn", "apps.kernels", one_pass, reps=1)
        if whole < 0.2:  # short enough to repeat
            whole = self.timed("batch_fn", "apps.kernels", one_pass, reps=5)
        self.metrics["apps.kernels.serial_batch_s"] = whole
        tasks = sum(op.size for op in job.work_ops)
        chunked = 0.0
        with self.recorder.span("batch_fn_chunks", "apps.kernels", job.request):
            for op in job.work_ops:
                pieces = max(1, round(job.chunks * op.size / tasks))
                step = -(-op.size // pieces)
                for lo in range(0, op.size, step):
                    payloads = op.payloads[lo : lo + step]
                    out = np.empty(len(payloads), dtype=np.float64)
                    began = time.perf_counter()
                    op.kernel.batch_fn(payloads, out)
                    chunked += time.perf_counter() - began
        # Chunks run on PROCS workers at once.
        self.attribute(chunked / PROCS)
        scaled = 0.0
        with self.recorder.span("fn_sample", "apps.kernels", job.request):
            for op in job.work_ops:
                stride = max(1, min(20, op.size // 8))
                sample = op.payloads[::stride]
                began = time.perf_counter()
                for payload in sample:
                    op.kernel.fn(payload)
                scaled += (time.perf_counter() - began) * op.size / len(sample)
        self.metrics["apps.kernels.serial_fn_s"] = scaled

    @contextlib.contextmanager
    def _root(self, name: str) -> Iterator[None]:
        """Spans on, under one root span, for the block's duration."""
        was_enabled = self.recorder.enabled
        self.recorder.enabled = True
        try:
            with self.recorder.span(name, "bench", self.job.request):
                yield
        finally:
            self.recorder.enabled = was_enabled

    def run(self, client: Optional[ServeClient] = None) -> None:
        """Everything that does not need the machine to itself."""
        with self._root("replay"):
            if client is not None:
                self.rpc(client)
                self.codec()
                self.job_queue()
            self.resolve()
            self.checkpoint()
            self.data_plane()
            self.allocation()
            self.taper()

    def run_idle(self) -> None:
        """The parts that need both cores: pool round trips, kernels."""
        with self._root("replay_idle"):
            self.pool()
            self.kernels()
