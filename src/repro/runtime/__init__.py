"""The adaptive runtime system (Section 4 of the paper).

* :class:`RunConfig` — the unified, frozen run configuration,
* :class:`Kernel` — the unified kernel declaration (per-task fn +
  optional vectorized batch fn + cost declaration),
* :mod:`.backends` — the Backend protocol: :class:`SimBackend`
  and :class:`MultiprocessingBackend`, one scheduling session on a
  simulated machine or on real worker processes,
* :class:`MachineConfig` — the simulated distributed-memory machine,
* :class:`TaperPolicy` and baselines (:mod:`.schedulers`) — grain-size
  selection,
* :func:`run_central` — execute one parallel operation from a central
  queue,
* :class:`FinishingTimeEstimator` — Equation 1,
* :func:`allocate_pair` / :func:`allocate_many` — the iterative processor
  allocation algorithm,
* :func:`choose_granularity` — communication granularity for pipelines.

The pre-``RunConfig`` entry points (``run_distributed``,
``run_concurrent_ops``, ``run_pipelined``) are not re-exported here.
The functions themselves remain available in their home submodules
(:mod:`repro.runtime.distributed`, :mod:`repro.runtime.executor`) for
backend-internal use.
"""

from .allocation import (
    AllocationResult,
    allocate_even,
    allocate_many,
    allocate_pair,
    allocate_proportional,
)
from .comm import CommEstimator, FlatCommModel
from .config import RunConfig
from .cost_model import CostFunction, OnlineStats
from .distributed import DistributedRunResult, block_distribution
from .estimates import FinishingTimeEstimator, OpProfile, lag_term
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultReport,
    FaultSpec,
    parse_fault_spec,
)
from .executor import (
    ConcurrentRunResult,
    PipelineIteration,
    PipelineRunResult,
    profile_of,
)
from .granularity import GranularityModel, choose_granularity
from .kernel import BATCH_AUTO_MIN_TASKS, Kernel, as_kernel
from .machine import MachineConfig, ProcessorState, RunResult, fresh_processors
from .sampling import profile_from_costs, sample_mean_std, stats_from_costs
from .schedulers import (
    ChunkPolicy,
    Factoring,
    GuidedSelfScheduling,
    SelfScheduling,
    StaticChunking,
    make_policy,
    run_central,
)
from .taper import TaperPolicy
from .task import (
    ParallelOp,
    RealOp,
    SPIN_KERNEL,
    real_op_from_parallel,
    spin_task,
)

__all__ = [
    "RunConfig",
    "Kernel",
    "as_kernel",
    "BATCH_AUTO_MIN_TASKS",
    "FaultPlan",
    "FaultSpec",
    "FaultReport",
    "FaultInjector",
    "parse_fault_spec",
    "MachineConfig",
    "ProcessorState",
    "RunResult",
    "fresh_processors",
    "ParallelOp",
    "RealOp",
    "real_op_from_parallel",
    "spin_task",
    "SPIN_KERNEL",
    "OnlineStats",
    "CostFunction",
    "TaperPolicy",
    "SelfScheduling",
    "GuidedSelfScheduling",
    "Factoring",
    "StaticChunking",
    "ChunkPolicy",
    "make_policy",
    "run_central",
    "DistributedRunResult",
    "block_distribution",
    "FinishingTimeEstimator",
    "OpProfile",
    "lag_term",
    "sample_mean_std",
    "stats_from_costs",
    "profile_from_costs",
    "allocate_pair",
    "allocate_many",
    "allocate_even",
    "allocate_proportional",
    "AllocationResult",
    "CommEstimator",
    "FlatCommModel",
    "GranularityModel",
    "choose_granularity",
    "ConcurrentRunResult",
    "PipelineIteration",
    "PipelineRunResult",
    "profile_of",
]
