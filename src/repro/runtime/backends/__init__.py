"""Execution backends behind one protocol (see DESIGN.md).

* :class:`SimBackend` — the discrete-event simulator: the one
  scheduling session on a Section 4 machine (work units, deterministic).
* :class:`MultiprocessingBackend` — real execution of Python kernels on
  a ``multiprocessing`` worker pool with TAPER chunk self-scheduling,
  Eq. 1 worker-subset rationing, and pipelined stage overlap
  (wall-clock seconds, actually parallel).
* :class:`DistBackend` — the same coordinator loop over TCP
  ``repro hostagent`` daemons on multiple hosts (``--hosts``).

Pick one with :func:`get_backend` / ``RunConfig.backend`` — or, higher
up, through :func:`repro.api.run`.
"""

from .base import (
    AnyOp,
    Backend,
    BackendRunResult,
    OpOutcome,
    as_real_op,
    backend_for,
    check_graph_attachment,
    get_backend,
    register_backend,
)
from ..faults import FaultPlan, FaultReport, FaultSpec
from .dist import DistBackend, HostAgent, run_hostagent
from .mp import (
    MpBackendError,
    MultiprocessingBackend,
    default_start_method,
    real_machine_config,
)
from .shm import shm_available
from .sim import SimBackend

__all__ = [
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "AnyOp",
    "Backend",
    "BackendRunResult",
    "OpOutcome",
    "SimBackend",
    "MultiprocessingBackend",
    "DistBackend",
    "HostAgent",
    "run_hostagent",
    "MpBackendError",
    "check_graph_attachment",
    "default_start_method",
    "real_machine_config",
    "shm_available",
    "as_real_op",
    "backend_for",
    "get_backend",
    "register_backend",
]
