"""The discrete-event simulator: the one scheduling session on a
:class:`SimFleet`, whose workers run kernels inline in work units."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import heapq
import math
import operator
import queue
import traceback
from typing import Any, Dict, List, Optional

from ..config import PoolConfig, RunConfig
from ..faults import InjectedFault
from ..kernel import Kernel
from ..machine import MachineConfig
from ..task import ParallelOp, RealOp, real_op_from_parallel
from .base import AnyOp, BackendRunResult, load_facts, register_backend
from .mp import SessionBackend
from .pool import SlotPool


def records_within(records: List[tuple], arrival: float) -> List[tuple]:
    """``records`` (``(index, start, duration, value)``, in order) with
    the last one's duration cut so it ends no later than ``arrival``:
    ``work`` sums a chunk's costs in another order than its record
    times, so the last record can end an ulp after its report."""
    if not records or records[-1][1] + records[-1][2] <= arrival:
        return records
    index, start, duration, value = records[-1]
    duration = arrival - start
    while start + duration > arrival:  # (at most one ulp off)
        duration = math.nextafter(duration, 0.0)
    return records[:-1] + [(index, start, duration, value)]


class SimFleet(SlotPool):
    """``p`` simulated workers on one clock.

    ``send`` prices a chunk as ``run_central`` does (``sched_overhead +
    size * task_overhead`` plus each task's ``Kernel.cost_fn``), runs
    its kernel inline and files the report at the chunk's finish;
    ``recv`` pops the first to finish (ties by ``wid``) and moves the
    clock there, unless none finishes within ``timeout``: then the clock
    moves on by ``timeout``, so backoff and speculation deadlines pass
    as on a real fleet.  Fault directives act as on a worker process:
    ``kill`` is a ``dead`` event instead of a report, ``raise`` fails
    the chunk's tasks, and ``slow`` / ``delay`` add time before / after.
    A dead worker heals as a pool's does, by :class:`SlotPool`'s rules
    on the simulated clock: ``recv`` announces a due respawn as a
    ``sweep``, and the respawned worker is ready at once.
    """

    name = "sim"

    def __init__(
        self,
        p: int,
        machine: Optional[MachineConfig] = None,
        pool_config: Optional[PoolConfig] = None,
    ):
        super().__init__(p, pool_config)
        self.started = True
        self.alive[:p] = [True] * p
        self._machine = machine or MachineConfig(processors=p)
        self._clock = 0.0
        #: ``(finish, wid, event)`` per report, death or handshake to come.
        self._events: List[tuple] = []
        self._ops: Dict[int, tuple] = {}

    def now(self) -> float:
        return self._clock

    def _start_worker(self, wid: int) -> None:
        heapq.heappush(self._events, (self._clock, wid, ("ready", wid, None)))

    def send(self, wid: int, message: tuple) -> None:
        _run, key, indices, fault, _batch = message
        kind = fault[0] if fault is not None else None
        if kind == "kill":
            event = ("dead", wid, None)
            heapq.heappush(self._events, (self._clock, wid, event))
            return
        kernel, payloads = self._ops[key]
        machine = self._machine
        start = self._clock + (fault[1] if kind == "slow" else 0.0)
        # run_central's arithmetic, so finishing times tie as there.
        work = machine.sched_overhead + len(indices) * machine.task_overhead
        task_clock = start + machine.sched_overhead
        records, failed, tb = [], [], ""
        for index in indices:
            cost = kernel.cost_fn(payloads[index])
            work += cost
            task_clock += machine.task_overhead
            try:
                if kind == "raise":
                    raise InjectedFault(
                        f"injected kernel fault on worker {wid}"
                    )
                value = float(kernel.fn(payloads[index]))
            except Exception:
                failed.append(index)
                tb = traceback.format_exc()
            else:
                records.append((index, task_clock, cost, value))
            task_clock += cost
        finish = start + work + (fault[1] if kind == "delay" else 0.0)
        records = records_within(records, finish)
        if failed:
            event = ("error", wid, (key, failed, tb, records))
        else:
            event = ("done", wid, (key, records, None))
        heapq.heappush(self._events, (finish, wid, event))

    def recv(self, timeout: float) -> tuple:
        due = self._due() if self.healing else math.inf
        if due <= self._clock + timeout and (
            not self._events or due <= self._events[0][0]
        ):
            self._clock = max(self._clock, due)
            self._announced = True
            return ("sweep", None, None)
        if not self._events or self._events[0][0] > self._clock + timeout:
            self._clock += timeout
            raise queue.Empty
        self._clock, _wid, event = heapq.heappop(self._events)
        if event[0] == "ready":
            return self._joined(event[1])
        return event

    def load(self, wid: int, key: int, kernel, payloads) -> Dict[str, Any]:
        self._ops[key] = (kernel, payloads)
        return load_facts("pickle")

    def unload(self, key: int) -> None:
        self._ops.pop(key, None)


def _on_payload(fn, pair) -> float:
    return fn(pair[0])


def _one(payload) -> float:
    return 1.0


def _priced(op: AnyOp) -> RealOp:
    """``op`` with each payload paired with its declared cost, which the
    kernel's ``cost_fn`` reads (a simulated op's payload is its cost)."""
    if getattr(op, "is_stream", False):
        raise ValueError(
            f"StreamOp {op.name!r} cannot run on the sim backend: a "
            "stream's tasks arrive at wall-clock pace from its source; "
            "use the mp backend"
        )
    if op.costs is None and op.size:
        raise ValueError(
            f"RealOp {op.name!r} has no declared costs; the sim backend "
            "needs per-task cost estimates (set RealOp.costs or run on "
            "the mp backend, which measures)"
        )
    if isinstance(op, ParallelOp):
        fn, op = _one, real_op_from_parallel(op, 1.0)
    else:
        fn = op.kernel.fn
    costs = list(op.costs or ())
    kernel = Kernel(
        functools.partial(_on_payload, fn),
        cost_fn=operator.itemgetter(1),
        name=op.name,
    )
    return dataclasses.replace(
        op, kernel=kernel, payloads=list(zip(op.payloads, costs)), costs=costs
    )


class SimBackend(SessionBackend):
    """Simulated execution on a :class:`SimFleet` (abstract work units,
    deterministic)."""

    name = "sim"

    @contextlib.contextmanager
    def _fleet(self, cfg: RunConfig):
        # Eq. 1 in work units, whichever cost source samples the tasks.
        cfg = cfg.with_(machine=cfg.machine_config())
        yield SimFleet(cfg.processors, cfg.machine, cfg.pool), cfg

    def run_ops(self, ops, cfg, deps=None) -> BackendRunResult:
        result = super().run_ops([_priced(op) for op in ops], cfg, deps)
        result.time_unit = "work-units"
        return result


register_backend("sim", SimBackend)
