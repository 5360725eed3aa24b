"""Load generation against a live ``python -m repro serve`` daemon.

One process, the public :class:`~repro.serve.client.ServeClient` only.
A closed loop is one thread that submits, waits, and repeats.  An open
loop is a submitter thread that sends on a fixed schedule whatever the
daemon does, plus one waiter thread that collects results in submit
order; each job is timed from the instant it was *due*, so a stall
charges every job it delayed.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.serve.client import ServeClient, ServeError

from . import host
from .layers import PROCS, Input
from .trace import SpanRecorder, repeat_until

#: Sized for nproc = 2, like the pool.
MAX_RUNNING = PROCS
#: Deep enough that a stalled second shows as open-loop latency, not as
#: refused submits (the default of 8 is 0.4 s of the open loop).
QUEUE_LIMIT = 256
WAIT_TIMEOUT = 30.0


@dataclass(frozen=True)
class JobSpec:
    """One generated submission and what a correct daemon must answer."""

    target: str
    priority: int
    overrides: Dict[str, object]
    #: The ops the daemon will resolve the submission to, and their
    #: reference answer.
    input: Input


@dataclass
class Sample:
    spec: JobSpec
    #: Closed loop: when ``submit`` was called.  Open loop: when it was due.
    start: float
    sent: float = 0.0
    end: float = 0.0
    ok: bool = False
    refused: bool = False
    traced: bool = False
    job: Dict[str, object] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def tasks(self) -> int:
        return self.spec.input.tasks

    @property
    def serial_s(self) -> float:
        return self.spec.input.serial_s

    def describe(self) -> str:
        return (
            f"{self.spec.target} {self.spec.overrides}: "
            f"{'refused' if self.refused else 'answered'} {self.job} "
            f"(want value_total {self.spec.input.value_total})"
        )


class Daemon:
    """A ``repro serve`` subprocess with its own throw-away state dir."""

    def __init__(self, root: str, state_dir: str):
        self.root = root
        self.state_dir = state_dir
        self.process: Optional[subprocess.Popen] = None
        self.client = ServeClient(os.path.join(state_dir, "serve.sock"))

    def start(self, first: JobSpec) -> float:
        """Spawn, wait until ready, run one job; returns the seconds
        that took (the user-visible set-up cost of the serve path)."""
        os.makedirs(self.state_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        began = time.perf_counter()
        with open(os.path.join(self.state_dir, "daemon.log"), "w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--state-dir", self.state_dir,
                    "--procs", str(PROCS),
                    "--max-running", str(MAX_RUNNING),
                    "--queue-limit", str(QUEUE_LIMIT),
                ],
                cwd=self.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                # Its own process group, so discard() can take the
                # workers down with it.
                start_new_session=True,
            )
        self.client.wait_ready(timeout=30.0)
        sample = run_job(self.client, first, SpanRecorder())
        elapsed = time.perf_counter() - began
        if not sample.ok:
            raise RuntimeError(f"first job on a fresh daemon failed: {sample.job}")
        return elapsed

    def peak_rss_mib(self) -> float:
        return host.peak_rss_mib(self.process.pid)

    def tree(self) -> List[int]:
        """The daemon and its workers."""
        return [self.process.pid] + host.descendants(self.process.pid)

    def log_tail(self) -> str:
        try:
            with open(os.path.join(self.state_dir, "daemon.log")) as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    def discard(self) -> None:
        """Kill the daemon and its workers outright.  For the daemons
        that existed only to time a set-up: a clean drain takes 1.5 s,
        and nothing they hold is worth it."""
        process, self.process = self.process, None
        if process is not None:
            below = host.descendants(process.pid)
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            shutil.rmtree(self.state_dir, ignore_errors=True)
            if host.wait_gone(below, 5.0):
                raise host.HygieneError(f"SIGKILL did not end: {below}")

    def stop(self) -> None:
        """SIGTERM drain, then remove the state dir.  A daemon that
        will not go, or leaves workers behind, is a hard failure."""
        process, self.process = self.process, None
        if process is None:
            return
        workers = host.descendants(process.pid)
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            host.wait_gone(workers, 5.0)
            raise host.HygieneError("serve daemon ignored SIGTERM for 30 s")
        finally:
            shutil.rmtree(self.state_dir, ignore_errors=True)
        if host.wait_gone(workers, 5.0):
            raise host.HygieneError(f"daemon workers outlived it: {workers}")


def run_job(
    client: ServeClient,
    spec: JobSpec,
    recorder: SpanRecorder,
    due: Optional[float] = None,
) -> Sample:
    """Submit and wait in the calling thread (the closed-loop step)."""
    sample = submit_job(client, spec, recorder, due)
    if not sample.refused:
        await_job(client, sample, recorder)
    return sample


def submit_job(
    client: ServeClient,
    spec: JobSpec,
    recorder: SpanRecorder,
    due: Optional[float] = None,
) -> Sample:
    sent = time.perf_counter()
    sample = Sample(
        spec, start=sent if due is None else due, sent=sent,
        traced=recorder.enabled,
    )
    try:
        with recorder.span("submit", "serve.client"):
            sample.job = client.submit(
                spec.target, priority=spec.priority, overrides=spec.overrides
            )
    except ServeError as error:
        sample.refused = True
        sample.job = {"error": str(error)}
        sample.end = time.perf_counter()
    return sample


def await_job(
    client: ServeClient, sample: Sample, recorder: SpanRecorder
) -> None:
    job_id = str(sample.job["id"])
    try:
        with recorder.span("wait", "serve.client", request=job_id):
            sample.job = client.wait(job_id, timeout=WAIT_TIMEOUT)
    except ServeError as error:
        sample.job = {"id": job_id, "error": str(error)}
    sample.end = time.perf_counter()
    result = sample.job.get("result") or {}
    sample.ok = (
        sample.job.get("state") == "done"
        and result.get("value_total") == sample.spec.input.value_total
        and result.get("tasks") == sample.spec.input.tasks
    )


def closed_loop(
    client: ServeClient,
    specs: Iterator[JobSpec],
    until: float,
    recorder: SpanRecorder,
    alternate_tracing: bool = False,
) -> List[Sample]:
    """Submit, wait, repeat until the clock passes ``until``."""
    return repeat_until(
        lambda: run_job(client, next(specs), recorder),
        until, recorder, alternate_tracing,
    )


def open_loop(
    client: ServeClient,
    specs: Iterator[JobSpec],
    rate: float,
    start: float,
    until: float,
    recorder: SpanRecorder,
) -> List[Sample]:
    """Send at ``rate`` per second from ``start`` until ``until``."""
    samples: List[Sample] = []
    pending: "queue.Queue[Optional[Sample]]" = queue.Queue()

    def waiter() -> None:
        while True:
            sample = pending.get()
            if sample is None:
                return
            await_job(client, sample, recorder)

    thread = threading.Thread(target=waiter, name="open-loop-waiter")
    thread.start()
    try:
        index = 0
        while True:
            due = start + index / rate
            if due >= until:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample = submit_job(client, next(specs), recorder, due=due)
            samples.append(sample)
            if not sample.refused:
                pending.put(sample)
            index += 1
    finally:
        pending.put(None)
        thread.join()
    return samples
