"""Shared workload machinery for the Section 5 applications.

The paper evaluates on four production codes (Psirrfan x-ray tomography,
the UCLA General Circulation Model, an adaptive vortex method, and the EMU
circuit simulator).  Those codes and their inputs are not available; per
DESIGN.md's substitution rule each application is modelled as a generator
of *phases* — parallel operations with the cost distribution and available
parallelism the paper describes — executed on the simulated machine under
one of three modes:

* ``static``   — block scheduling, phases strictly serialised (the
  baseline curve of Figure 6),
* ``taper``    — adaptive distributed TAPER per phase, phases serialised
  (the "TAPER" curve),
* ``split``    — TAPER plus the split/pipeline structure: independent
  sub-phases run concurrently under the Eq. 1 processor allocator (the
  "TAPER with split" curve).

:meth:`AppWorkload.run` is that simulation; :meth:`AppWorkload.graph`
gives the same phases as one ``(ops, deps)`` graph for a backend session
(``taper`` and ``split`` only: static chunking is a session policy).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..obs.events import Tracer
from ..runtime.distributed import run_distributed
from ..runtime.executor import run_concurrent_ops
from ..runtime.machine import MachineConfig
from ..runtime.schedulers import make_policy, run_central
from ..runtime.task import ParallelOp

MODES = ("static", "taper", "split")


# ---------------------------------------------------------------------------
# Cost distributions
# ---------------------------------------------------------------------------


def regular_costs(n: int, cost: float = 10.0) -> List[float]:
    """A perfectly regular operation."""
    return [cost] * n


def lognormal_costs(
    rng: random.Random, n: int, mean: float, cv: float
) -> List[float]:
    """Irregular costs with a given mean and coefficient of variation."""
    if cv <= 0:
        return [mean] * n
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    return [rng.lognormvariate(mu, math.sqrt(sigma2)) for _ in range(n)]


def uniform_costs(
    rng: random.Random, n: int, lo: float, hi: float
) -> List[float]:
    """Bounded-variability costs (no unbounded straggler tail)."""
    return [rng.uniform(lo, hi) for _ in range(n)]


def bimodal_costs(
    rng: random.Random,
    n: int,
    cheap: float,
    expensive: float,
    expensive_fraction: float,
) -> List[float]:
    """Two-population costs (e.g. convective vs quiescent grid columns)."""
    return [
        expensive if rng.random() < expensive_fraction else cheap
        for _ in range(n)
    ]


def power_law_costs(
    rng: random.Random,
    n: int,
    scale: float,
    alpha: float = 2.2,
    cap: Optional[float] = None,
) -> List[float]:
    """Heavy-tailed costs (hierarchical N-body interaction lists).

    ``cap`` bounds the tail: adaptive codes split oversized interaction
    lists across tree levels, so no single task grows without limit.
    """
    costs = [scale * rng.paretovariate(alpha) for _ in range(n)]
    if cap is not None:
        costs = [min(c, cap) for c in costs]
    return costs


def active_subset(rng: random.Random, n: int, fraction: float) -> List[int]:
    """A sparse active index set (mask semantics from Figure 1)."""
    return [index for index in range(n) if rng.random() < fraction]


# ---------------------------------------------------------------------------
# Phases and schedules
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """One parallel operation within a time step, with split structure.

    ``concurrent_group`` — phases sharing a group id within one step may
    execute concurrently in ``split`` mode (the split transformation
    proved them independent).  In ``static``/``taper`` modes group
    structure is ignored and phases serialise in list order.
    """

    op: ParallelOp
    concurrent_group: int = 0


@dataclass
class StepResult:
    makespan: float
    work: float


@dataclass
class AppRunResult:
    """Simulated execution of a whole application run."""

    name: str
    mode: str
    processors: int
    makespan: float
    total_work: float
    steps: int

    @property
    def speedup(self) -> float:
        if self.makespan <= 0:
            return float(self.processors)
        return self.total_work / self.makespan

    @property
    def efficiency(self) -> float:
        if self.processors <= 0:
            return 1.0
        return self.speedup / self.processors


class AppWorkload:
    """Base class: subclasses generate per-step phase lists."""

    name = "app"

    def __init__(self, seed: int = 0, steps: int = 4):
        self.seed = seed
        self.steps = steps

    # Subclasses override.
    def phases_for_step(self, rng: random.Random, step: int, mode: str) -> List[Phase]:
        raise NotImplementedError

    # -- execution -------------------------------------------------------------

    def run(
        self,
        p: int,
        mode: str = "taper",
        config: Optional[MachineConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> AppRunResult:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; pick from {MODES}")
        config = config or MachineConfig(processors=p)
        rng = random.Random(self.seed)
        makespan = 0.0
        total_work = 0.0
        for step in range(self.steps):
            phases = self.phases_for_step(rng, step, mode)
            step_result = self._run_step(phases, p, mode, config, tracer)
            makespan += step_result.makespan
            total_work += step_result.work
        return AppRunResult(
            name=self.name,
            mode=mode,
            processors=p,
            makespan=makespan,
            total_work=total_work,
            steps=self.steps,
        )

    def graph(self, mode: str) -> Tuple[List[ParallelOp], List[Set[int]]]:
        """The whole run as one ``(ops, deps)`` graph for a backend
        session: the phases :meth:`run` walks, each group depending on
        every op of the group before it (across steps too), so the
        barriers stand where :meth:`run` puts them.  ``mode`` shapes the
        graph only; static chunking is a session's ``policy="static"``.
        """
        if mode not in ("taper", "split"):
            raise ValueError(
                f"mode {mode!r} does not shape a graph; pick taper or "
                'split (static chunking is policy="static")'
            )
        rng = random.Random(self.seed)
        ops: List[ParallelOp] = []
        deps: List[Set[int]] = []
        before: Set[int] = set()
        for step in range(self.steps):
            for group in _groups(self.phases_for_step(rng, step, mode), mode):
                first = len(ops)
                ops.extend(group)
                deps.extend(set(before) for _ in group)
                before = set(range(first, len(ops)))
        return ops, deps

    def _run_step(
        self,
        phases: List[Phase],
        p: int,
        mode: str,
        config: MachineConfig,
        tracer: Optional[Tracer] = None,
    ) -> StepResult:
        # Groups run one after another, each sub-run starting its local
        # clock at zero; when tracing, advance the tracer's origin after
        # each one so the combined stream lays them end to end.
        makespan = 0.0
        for ops in _groups(phases, mode):
            if mode == "static":
                (op,) = ops
                span = run_central(
                    op.costs,
                    p,
                    make_policy("static"),
                    config,
                    tracer=tracer,
                    op_label=op.name,
                ).makespan
            elif len(ops) == 1:
                span = run_distributed(
                    ops[0].costs,
                    p,
                    config=config,
                    bytes_per_task=ops[0].bytes_per_task,
                    tracer=tracer,
                    op_label=ops[0].name,
                ).makespan
            else:
                span = run_concurrent_ops(
                    ops, p, config, allocator="balance", tracer=tracer
                ).makespan
            makespan += span
            if tracer is not None:
                tracer.advance(span)
        work = sum(phase.op.total_work for phase in phases)
        return StepResult(makespan=makespan, work=work)


def _groups(phases: List[Phase], mode: str) -> List[List[ParallelOp]]:
    """Which of a step's phases run together, in order: in ``split``
    mode those sharing a ``concurrent_group`` (ordered by first
    appearance), otherwise each phase alone.  Empty ops are dropped."""
    groups: Dict[int, List[ParallelOp]] = {}
    for index, phase in enumerate(phases):
        if phase.op.size:
            key = phase.concurrent_group if mode == "split" else index
            groups.setdefault(key, []).append(phase.op)
    return list(groups.values())
