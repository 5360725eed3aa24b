"""Job lifecycle and admission control for the serve daemon.

A job moves through a strict state machine::

    SUBMITTED -> ADMITTED -> RUNNING -> DONE
                    |            |----> FAILED
                    |            `----> CANCELLED
                    `-----------------> CANCELLED   (drained while queued)

``SUBMITTED`` is the instant the request parsed; admission control
(:class:`JobQueue`) either moves it to ``ADMITTED`` or rejects it with a
reason string — a rejected job never becomes a :class:`Job` the server
tracks.  Transitions outside :data:`TRANSITIONS` raise, so a scheduling
bug surfaces as an exception instead of a silently inconsistent status
report.
"""

from __future__ import annotations

import enum
import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple


class JobState(str, enum.Enum):
    SUBMITTED = "submitted"
    ADMITTED = "admitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Legal state-machine edges; everything else is a scheduler bug.
TRANSITIONS: Dict[JobState, Tuple[JobState, ...]] = {
    JobState.SUBMITTED: (JobState.ADMITTED, JobState.CANCELLED),
    JobState.ADMITTED: (JobState.RUNNING, JobState.CANCELLED),
    JobState.RUNNING: (
        JobState.DONE,
        JobState.FAILED,
        JobState.CANCELLED,
    ),
    JobState.DONE: (),
    JobState.FAILED: (),
    JobState.CANCELLED: (),
}


class InvalidTransition(Exception):
    """An illegal job state-machine edge was attempted."""


@dataclass
class Job:
    """One submitted run and everything the server knows about it."""

    id: str
    target: str
    priority: int = 0
    overrides: Dict[str, Any] = field(default_factory=dict)
    state: JobState = JobState.SUBMITTED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Summary of the finished run (value_total, makespan, ...).
    result: Optional[Dict[str, Any]] = None
    #: Last line of the failure (the concise status-field summary).
    error: Optional[str] = None
    #: Where the *full* traceback was persisted
    #: (``STATE_DIR/jobs/<id>/error.txt``); ``None`` when the daemon
    #: runs without a state dir or the write failed.
    error_file: Optional[str] = None
    #: Checkpoint/journal directory (set at submit; doubles as the
    #: resume handle after a cancel).
    checkpoint_dir: Optional[str] = None
    resume_dir: Optional[str] = None
    #: Pool workers currently granted to this job (server's view).
    granted: Set[int] = field(default_factory=set)
    #: Workers asked back but not yet released by the session.
    pending_revoke: Set[int] = field(default_factory=set)
    #: The live _MpSession while RUNNING (None before/after).
    session: Any = None
    done: threading.Event = field(default_factory=threading.Event)

    def advance(self, new: JobState) -> None:
        if new not in TRANSITIONS[self.state]:
            raise InvalidTransition(
                f"{self.id}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        self.state = new
        if new is JobState.RUNNING:
            self.started_at = time.time()
        if new.terminal:
            self.finished_at = time.time()
            self.done.set()

    def info(self) -> Dict[str, Any]:
        """JSON-safe status snapshot for the wire."""
        out: Dict[str, Any] = {
            "id": self.id,
            "target": self.target,
            "priority": self.priority,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "workers": len(self.granted),
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.error_file is not None:
            out["error_file"] = self.error_file
        if self.resume_dir is not None:
            out["resume_dir"] = self.resume_dir
        return out


class JobQueue:
    """Bounded priority queue with admission control.

    Higher ``priority`` runs first; within a priority band jobs leave in
    submission order (FIFO — the heap key is ``(-priority, seq)``).
    :meth:`offer` never blocks: when the queue is full or the server is
    draining it returns ``(False, reason)`` and the caller rejects the
    submission at the socket.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("JobQueue limit must be >= 1")
        self.limit = limit
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = 0
        self._lock = threading.Lock()
        self.draining = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def offer(self, job: Job) -> Tuple[bool, str]:
        with self._lock:
            if self.draining:
                return False, "draining"
            if len(self._heap) >= self.limit:
                return False, f"queue full (limit {self.limit})"
            heapq.heappush(self._heap, (-job.priority, self._seq, job))
            self._seq += 1
            return True, ""

    def pop(self) -> Optional[Job]:
        with self._lock:
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def drain(self) -> List[Job]:
        """Refuse new offers and empty the queue (daemon shutdown)."""
        with self._lock:
            self.draining = True
            jobs = [entry[2] for entry in self._heap]
            self._heap.clear()
            return jobs
