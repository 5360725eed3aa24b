"""The runtime's invariants, each stated once: the docstring of a
predicate over a run's own artifacts, its events (the canonical JSONL
of :mod:`repro.obs.events`: ``run --trace-out PATH.jsonl``, a serve
daemon's ``events.jsonl``) and its ``journal.jsonl``.  A predicate
returns what it checked or raises :class:`Violation` naming a
counterexample; ``python -m repro audit ARTIFACT...`` runs them all.
The last three judge a serve daemon across its jobs, on its trace
together with its jobs' (an event's ``job`` attr names its job):
:func:`one_job_per_worker`, :func:`quarantine_is_final` and
:func:`one_end_per_job`; on a single run's trace they hold vacuously.
"""

from __future__ import annotations

import glob
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..runtime.checkpoint import JournalReplay, read_journal, restorable
from . import events

Task = Tuple[str, int]


class Violation(AssertionError):
    """An invariant does not hold; the message names a counterexample."""


def _expect(holds: bool, counterexample: str) -> None:
    if not holds:
        raise Violation(counterexample)


@dataclass
class Run:
    """A run's events (``None``: no events file given) and its journals
    by directory."""

    events: Optional[List[events.Event]] = None
    journals: Dict[str, JournalReplay] = field(default_factory=dict)

    def of(self, *kinds: str) -> List[events.Event]:
        return [event for event in self.events or () if event.kind in kinds]

    def restored(self) -> Set[Task]:
        return {
            (label, index)
            for event in self.of(events.RUN_RESUMED)
            for label, indices in event.attrs.get("restored", {}).items()
            for index in indices
        }

    def settled(self) -> Dict[Task, List[events.Event]]:
        """Each task's counted results (``task.dispatch``)."""
        found: Dict[Task, List[events.Event]] = defaultdict(list)
        for event in self.of(events.TASK_DISPATCH):
            found[(event.op, event.attrs["task"])].append(event)
        return found

    def journal(self) -> Optional[Tuple[str, JournalReplay]]:
        """The run's own journal, when exactly one was given."""
        if len(self.journals) != 1:
            return None
        return next(iter(self.journals.items()))


def _trusted(replay: JournalReplay) -> Set[Task]:
    """The tasks a journal's trust rules restore."""
    return {
        (chunk.label, task[0])
        for pages in restorable(replay).values()
        for _mark, chunks in pages
        for chunk in chunks
        for task in chunk.tasks
    }


def exactly_once(run: Run) -> str:
    """Every task is settled exactly once: by one counted result
    (``task.dispatch``), by the journal at a resume (``run.resumed``'s
    ``restored``) or by quarantine (``chunk.retry``'s ``quarantined``),
    however its chunks were split, reassigned or speculated.  A run that
    returned (``run.end``, not cancelled) settled every task of its ops
    (``op.begin``'s ``tasks``, a stream's admitted pages), reports as
    many as it settled and, if it checkpointed, journaled exactly
    those.  A journal holds each task at most once."""
    for directory, replay in run.journals.items():
        _expect(not replay.duplicates, f"journal {directory} records "
                f"{replay.duplicates} task results twice")
    counts = Counter({task: len(e) for task, e in run.settled().items()})
    counts.update(run.restored())
    for event in run.of(events.CHUNK_RETRIED):
        counts.update((event.op, i) for i in event.attrs["quarantined"])
    for (label, index), count in sorted(counts.items()):
        _expect(count == 1, f"op {label!r} task {index} settled {count} times")
    known: Dict[str, Set[int]] = defaultdict(set)
    for event in run.of(events.OP_BEGIN):
        known[event.op].update(range(event.attrs.get("tasks", 0)))
    for event in run.of(events.STREAM_PAGE):
        if event.attrs["state"] == "admit":
            base = event.attrs["base"]
            known[event.op].update(range(base, base + event.attrs["tasks"]))
    for label, index in counts:
        _expect(label not in known or index in known[label],
                f"op {label!r} settled task {index} it never had")
    if not run.of(events.RUN_END) or run.of(events.RUN_CANCELLED):
        return f"{len(counts)} tasks settled at most once"
    for label, indices in sorted(known.items()):
        missing = sorted(i for i in indices if (label, i) not in counts)
        _expect(not missing, f"op {label!r} never settled task "
                f"{missing[:1]}")
    done = set(run.settled()) | run.restored()
    reported = sum(event.attrs["tasks"] for event in run.of(events.RUN_END))
    _expect(reported == len(done),
            f"run.end reports {reported} tasks, {len(done)} settled")
    if run.journal():
        directory, replay = run.journal()
        odd = sorted(_trusted(replay) ^ done)
        _expect(not odd, f"journal {directory} and the run disagree on "
                f"{odd[:1]} (journaled xor settled)")
    return f"{len(counts)} tasks settled once each"


def restored_never_rerun(run: Run) -> str:
    """After a resume, no task the journal restored runs again: each
    task in ``run.resumed``'s ``restored`` is one the journal trusts
    (:func:`~repro.runtime.checkpoint.restorable`), and none of them is
    settled, or dropped as a duplicate, by the resumed run."""
    restored = run.restored()
    if run.journal():
        directory, replay = run.journal()
        untrusted = sorted(restored - _trusted(replay))
        _expect(not untrusted, f"{untrusted[:1]} restored, but journal "
                f"{directory} does not trust it")
    ran = set(run.settled())
    for event in run.of(events.CHUNK_DUPLICATE_DROPPED):
        ran.update((event.op, index) for index in event.attrs["indices"])
    again = sorted(restored & ran)
    _expect(not again, f"{again[:1]} was restored and ran again")
    return f"{len(restored)} restored tasks never ran again"


def rations_fit(run: Run) -> str:
    """Eq. 1's rations never exceed the processors there are: every
    ``alloc.decide`` hands out non-negative shares that sum to at most
    the live ``width`` it rationed."""
    decisions = run.of(events.ALLOC_DECIDE)
    for event in decisions:
        shares, width = event.attrs["shares"], event.attrs.get("width")
        _expect(
            width is not None and min(shares) >= 0 and sum(shares) <= width,
            f"alloc.decide at t={event.time:.6g} hands out {shares} of "
            f"width {width}",
        )
    return f"{len(decisions)} rations within their width"


def watermarks_monotone(run: Run) -> str:
    """Stream page watermarks only move forward: an op admits pages as
    seq 0, 1, 2, ..., each starting where the last ended (``base``),
    and settles each once, after its admission.  A journal's page marks
    tile each op's index space the same way, up to a torn one."""
    tiled = 0
    for directory, replay in run.journals.items():
        marks = defaultdict(list)
        for mark in sorted(replay.marks, key=lambda mark: mark.seq):
            if mark.seq == len(marks[mark.op_index]):
                marks[mark.op_index].append((mark.seq, mark.base, mark.tasks))
        for op_index, pages in marks.items():
            tiled += _tile(pages, f"journal {directory} op {op_index}")
    admitted: Dict[str, list] = defaultdict(list)
    settled: Set[Tuple[str, int]] = set()
    for event in run.of(events.STREAM_PAGE):
        seq = event.attrs["page"]
        if event.attrs["state"] == "admit":
            admitted[event.op].append(
                (seq, event.attrs["base"], event.attrs["tasks"])
            )
            continue
        _expect((event.op, seq) not in settled
                and seq < len(admitted[event.op]),
                f"op {event.op!r} settled page {seq} twice or unadmitted")
        settled.add((event.op, seq))
    for label, pages in admitted.items():
        tiled += _tile(pages, f"op {label!r}")
    return f"{tiled} pages tile their ops in order"


def _tile(pages: Sequence[Tuple[int, int, int]], where: str) -> int:
    end = 0
    for position, (seq, base, tasks) in enumerate(pages):
        _expect((seq, base) == (position, end), f"{where}: page {seq} "
                f"starts at {base}, expected page {position} at {end}")
        end = base + tasks
    return len(pages)


def first_result_wins(run: Run) -> str:
    """Under speculation, and any other duplicate delivery, a task's
    first result is the one counted: every dropped duplicate
    (``chunk.duplicate_dropped``'s ``indices``) belongs to a task that
    was restored, or settled exactly once by a copy that finished
    before the drop."""
    settled, restored = run.settled(), run.restored()
    drops = [(event, (event.op, index))
             for event in run.of(events.CHUNK_DUPLICATE_DROPPED)
             for index in event.attrs["indices"]]
    for event, task in drops:
        copies = settled.get(task, [])
        _expect(task in restored or (
            len(copies) == 1 and copies[0].end <= event.time
        ), f"{task}: the copy dropped at t={event.time:.6g} was not the "
           f"later one ({len(copies)} counted)")
    return f"{len(drops)} duplicates dropped after their first result"


def bytes_match_loads(run: Run) -> str:
    """``bytes_shipped`` is what the loads moved: a run's reported total
    (``run.end``) is the sum of its ``key.load`` facts."""
    loaded = sum(e.attrs["bytes_shipped"] for e in run.of(events.KEY_LOAD))
    ends = [e for e in run.of(events.RUN_END) if "bytes_shipped" in e.attrs]
    reported = sum(event.attrs["bytes_shipped"] for event in ends)
    _expect(not ends or reported == loaded, f"run.end reports {reported} "
            f"bytes shipped, the loads moved {loaded}")
    return f"{loaded} bytes shipped by {len(run.of(events.KEY_LOAD))} loads"


def segments_followed(run: Run) -> str:
    """Every shared-memory segment is followed by name from its layout
    (``shm.map``) through its reclaims (``shm.evict`` with
    ``reclaimed``) to its unlink (``shm.evict`` without): a name is
    laid out again only after a reclaim handed it over, every reclaim
    is laid out into, and nothing is unlinked twice or mapped after.
    (A segment a cache still holds when the run ends is unlinked when
    its pool stops, after the artifacts were written.)"""
    layouts, reclaims, unlinked = Counter(), Counter(), set()
    for event in run.of(events.SHM_MAP, events.SHM_EVICT):
        name = event.attrs["segment"]
        _expect(name not in unlinked, f"segment {name} used at "
                f"t={event.time:.6g} after its unlink")
        if event.kind == events.SHM_MAP:
            layouts[name] += not event.attrs["reused"]
        elif event.attrs["reclaimed"]:
            reclaims[name] += 1
        else:
            unlinked.add(name)
    for name in sorted(layouts | reclaims):
        _expect(reclaims[name] <= layouts[name] <= reclaims[name] + 1,
                f"segment {name} laid out {layouts[name]} times across "
                f"{reclaims[name]} reclaims")
    return f"{len(layouts)} segments followed to their unlink"


def keys_loaded_once(run: Run) -> str:
    """A key (an op's payloads, or one stream page's) is loaded at most
    once per worker incarnation (``key.load``; a worker's death,
    ``fault.worker_died``, lets its replacement load it again) and
    unloaded exactly once (``key.unload``), never loaded after; a run
    that returned unloaded every key it loaded."""
    loaded: Set[Tuple[int, int]] = set()
    keys: Set[int] = set()
    unloaded: Set[int] = set()
    kinds = (events.KEY_LOAD, events.KEY_UNLOAD, events.WORKER_DIED)
    for event in run.of(*kinds):
        if event.kind == events.WORKER_DIED:
            loaded = {(w, k) for w, k in loaded if w != event.proc}
            continue
        key = event.attrs["key"]
        _expect(key not in unloaded,
                f"{event.kind} of key {key} after its unload")
        _expect((event.proc, key) not in loaded,
                f"key {key} loaded twice on worker {event.proc}")
        if event.kind == events.KEY_UNLOAD:
            unloaded.add(key)
        else:
            loaded.add((event.proc, key))
            keys.add(key)
    _expect(not run.of(events.RUN_END) or keys <= unloaded,
            f"keys {sorted(keys - unloaded)} never unloaded")
    return f"{len(keys)} keys loaded once per worker, unloaded once"


def nothing_after_failed_sync(run: Run) -> str:
    """A journal write or fsync that failed (``checkpoint.failed``, or
    an injected ``diskfail``) is never retried and acknowledges nothing
    after it: no ``checkpoint.write``, settled stream page or
    ``run.end`` follows, and the journal fails at most once."""
    _expect(len(run.of(events.CHECKPOINT_FAILED)) <= 1,
            "the journal failed twice")
    failed = None
    for event in run.events or ():
        acknowledges = event.kind in (
            events.CHECKPOINT_WRITE, events.RUN_END
        ) or (event.kind, event.attrs.get("state")) == (
            events.STREAM_PAGE, "settle"
        )
        _expect(failed is None or not acknowledges, f"{event.kind} at "
                f"t={event.time:.6g} after the journal failed")
        if event.kind == events.CHECKPOINT_FAILED or (
            event.kind == events.FAULT_INJECTED
            and event.attrs.get("fault") == "diskfail"
        ):
            failed = failed or event
    return "no journal failure" if failed is None else "nothing after it"


def one_job_per_worker(run: Run) -> str:
    """A worker runs tasks for at most one job at any instant: on each
    worker, no two jobs' ``task.dispatch`` spans overlap."""
    spans: Dict[int, list] = defaultdict(list)
    for event in run.of(events.TASK_DISPATCH):
        job = event.attrs.get("job")
        spans[event.proc].append((event.time, event.end, job))
    for proc, found in sorted(spans.items()):
        until, holder = -math.inf, None
        for start, end, job in sorted(found, key=lambda span: span[:2]):
            _expect(start >= until or job == holder, f"worker {proc} runs "
                    f"{holder} and {job} at t={start:.6g}")
            if end > until:
                until, holder = end, job
    return f"{len(spans)} workers ran one job at a time"


def quarantine_is_final(run: Run) -> str:
    """A slot the crash-loop breaker retires (``pool.quarantine``) is
    retired once and runs nothing after: no ``task.dispatch`` on it
    begins at or after its quarantine."""
    retired: Dict[int, float] = {}
    for event in run.of(events.POOL_QUARANTINE):
        _expect(event.proc not in retired,
                f"slot {event.proc} quarantined twice")
        retired[event.proc] = event.time
    for event in run.of(events.TASK_DISPATCH):
        _expect(event.time < retired.get(event.proc, math.inf),
                f"slot {event.proc} runs {event.op!r} task "
                f"{event.attrs['task']} at t={event.time:.6g}, after its "
                f"quarantine at t={retired.get(event.proc, 0.0):.6g}")
    return f"{len(retired)} quarantined slots idle since"


def one_end_per_job(run: Run) -> str:
    """A drained daemon ended every job it admitted (``job.admitted``)
    exactly once, by one ``job.done``, ``job.failed`` or
    ``job.cancelled``, and ended no other."""
    admitted = {event.attrs["job"] for event in run.of(events.JOB_ADMITTED)}
    ends = Counter(event.attrs["job"] for event in run.of(
        events.JOB_DONE, events.JOB_FAILED, events.JOB_CANCELLED))
    for job in sorted(admitted | set(ends)):
        _expect(job in admitted and ends[job] == 1, f"job {job} "
                f"{'' if job in admitted else 'never admitted, '}ended "
                f"{ends[job]} times")
    return f"{len(admitted)} admitted jobs ended once each"


#: Every invariant, in the order ``repro audit`` checks them; the two a
#: journal alone can decide come first.
PREDICATES: Tuple[Callable[[Run], str], ...] = (
    exactly_once,
    watermarks_monotone,
    restored_never_rerun,
    rations_fit,
    first_result_wins,
    bytes_match_loads,
    segments_followed,
    keys_loaded_once,
    nothing_after_failed_sync,
    one_job_per_worker,
    quarantine_is_final,
    one_end_per_job,
)


def load(paths: Sequence[str]) -> Run:
    """The artifacts at ``paths`` as one :class:`Run`: events files,
    checkpoint directories (or their journals), and serve state
    directories (``events.jsonl`` and the ``jobs/*`` journals).  A path
    that does not exist raises ``FileNotFoundError`` naming it: judging
    what is left would pass a run whose trace is missing."""
    run = Run()
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"no such artifact: {path}")
        if os.path.basename(path) == "journal.jsonl":
            path = os.path.dirname(path) or "."
        stream = path
        if os.path.isdir(path):
            stream = os.path.join(path, "events.jsonl")
        if os.path.exists(stream):
            with open(stream) as handle:
                found = events.events_from_jsonl(handle.read())
            run.events = (run.events or []) + found
        for directory in [path, *glob.glob(os.path.join(path, "jobs", "*"))]:
            if os.path.exists(os.path.join(directory, "journal.jsonl")):
                run.journals[directory] = read_journal(directory)
    return run


def check(run: Run) -> None:
    """Raise ``run``'s first :class:`Violation`, if any."""
    for predicate in PREDICATES:
        predicate(run)


def audit(run: Run, out: Callable[[str], None] = print) -> int:
    """Check every predicate on ``run``, one line each: 1 at the first
    violation, else 0.  Without events only the first two decide."""
    for position, predicate in enumerate(PREDICATES):
        name = predicate.__name__
        if run.events is None and position > 1:
            out(f"n/a  {name}: no events")
            continue
        try:
            out(f"ok   {name}: {predicate(run)}")
        except Violation as violation:
            out(f"FAIL {name}: {violation}")
            return 1
    return 0
