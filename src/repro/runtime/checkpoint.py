"""Durable runs: the chunk journal and run manifest (checkpoint layer).

The mp backend's unit of recovery has always been the *chunk* — an
idempotent, re-executable slice of one operation's index space (the
same property Palkar & Zaharia's split annotations exploit: a split
that can be re-run is a split that can be restarted).  This module
makes that property durable:

* :class:`RunManifest` — written once at run start as the journal's
  header: a fingerprint of every scheduling-relevant config field plus
  the operation shapes, so a resume against a *different* run is
  refused instead of silently producing garbage, and the run target, so
  ``--resume DIR`` needs no target argument;
* :class:`ChunkJournal` — an append-only, CRC-checked record stream,
  one record per completed chunk (task indices, per-task cost samples
  and reduction partials, attempt counts);
* :func:`read_journal` — the replay path: skips corrupt records and
  de-duplicates task indices (a speculative duplicate journaled twice
  counts once);
* :func:`restorable` — the trust rules: which of those records a
  resumed coordinator may settle, per fixed op and per stream page.

**The durability contract** (stated here once; docs point at it).
Every line is flushed to the OS as it is appended, so a *coordinator*
crash loses nothing.  The file is fsynced at the durability points —
whenever something leaves the run: before ``run()`` returns its result
(:meth:`ChunkJournal.close`), before a cancel or drain reports a
``resume_dir``, before a stream page's result reaches its sink, and with
every :class:`PageMark` — and whenever the un-synced records hold at
least :data:`SYNC_WORTH_S` of measured task work.  A *host* crash
mid-run therefore costs at most that much work plus one chunk, and a
torn tail is *detected* (bad CRC / truncated JSON) and dropped, never
replayed as data.  Chunks are re-runnable, so what is lost is only
recomputed.  A checkpoint directory is one file, header first:

    checkpoint_dir/
        journal.jsonl    # "<crc8> <json>" lines: the RunManifest, then
                         # one per completed chunk / admitted page

Self-contained: imports nothing from the rest of the runtime (like
``faults.py``) so ``config`` and ``backends`` can both use it freely.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import sys
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .sampling import DEFAULT_SAMPLE

#: Journal format version; bump on incompatible layout changes.
#: (1 kept ``manifest.json`` and ``run.json`` beside the journal.)
FORMAT_VERSION = 2

JOURNAL_NAME = "journal.jsonl"

#: Measured task seconds un-synced records must hold before an append
#: pays for an fsync (about 10x the fsync itself): durability is priced
#: against the work a host crash would make the resume redo.
SYNC_WORTH_S = 0.005

#: RunConfig fields that determine the schedule (and therefore whether a
#: journal can be replayed against a config).  Operational knobs —
#: timeouts, fault plans, tracers, the checkpoint fields themselves —
#: are deliberately excluded: retrying with a longer timeout or without
#: fault injection is exactly what resume is *for*.
FINGERPRINT_FIELDS = (
    "backend",
    "processors",
    "policy",
    "allocator",
    "min_chunk",
    "cost_source",
    "time_scale",
    "batching",
    "seed",
)


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, unreadable, or malformed."""


class CheckpointMismatchError(CheckpointError):
    """The journal was written by a run with a different configuration.

    Replaying chunk results against a different processor count, chunk
    policy, or operation set would silently corrupt totals; the resume
    path refuses instead, naming the differing fields.
    """


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def config_fingerprint_fields(cfg: Any) -> Dict[str, Any]:
    """The scheduling-relevant subset of a RunConfig, as plain JSON.

    A ``dist`` run is fingerprinted *width-free* (``processors`` pinned
    to 1): its width is discovered from the agents, not configured, and
    the point of its journal is resuming after a host loss — on a
    narrower fleet.  Pinning the width would refuse exactly that resume.
    """
    fields = {name: getattr(cfg, name) for name in FINGERPRINT_FIELDS}
    # Constants since their knobs were deleted (idle processors always
    # flow across operations; the startup sample is one depth); kept so
    # journals written with them still resume.
    fields["work_conserving"] = True
    fields["sample_tasks"] = DEFAULT_SAMPLE
    if fields["backend"] == "dist":
        fields["processors"] = 1
    return fields


def op_shape(op: Any) -> Dict[str, Any]:
    """One operation's identity for fingerprinting.

    Payload *contents* are not hashed (payloads need not even be
    hashable); the name, size, declared costs, and byte weight pin the
    schedule.  Regenerate ops deterministically (same seed) to resume.
    """
    if getattr(op, "is_stream", False):
        # A stream's size and costs are known only as a run admits its
        # pages, so they cannot pin its identity; the shape is stable by
        # construction and per-page identity is checked against
        # journaled PageMarks at re-admission instead.
        return {
            "name": op.name,
            "size": "stream",
            "bytes_per_task": getattr(op, "bytes_per_task", 0.0),
            "costs": None,
        }
    costs = getattr(op, "costs", None)
    costs_digest = None
    if costs is not None:
        costs_digest = hashlib.sha256(
            json.dumps([repr(c) for c in costs]).encode()
        ).hexdigest()[:16]
    return {
        "name": op.name,
        "size": op.size,
        "bytes_per_task": getattr(op, "bytes_per_task", 0.0),
        "costs": costs_digest,
    }


def run_fingerprint(
    config: Dict[str, Any], shapes: Sequence[Dict[str, Any]]
) -> str:
    """One stable hash over :func:`config_fingerprint_fields` and the
    operations' :func:`op_shape` s (computed once, by the caller)."""
    payload = {"version": FORMAT_VERSION, "config": config, "ops": shapes}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    """What a checkpoint directory says about the run it belongs to."""

    fingerprint: str
    config: Dict[str, Any]
    ops: List[Dict[str, Any]]
    version: int = FORMAT_VERSION
    #: ``{"target": ..., "overrides": ...}`` as :func:`repro.api.run`
    #: was called (string targets only); not part of the fingerprint.
    target: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "ops": self.ops,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RunManifest":
        return cls(
            fingerprint=raw["fingerprint"],
            config=dict(raw.get("config", {})),
            ops=list(raw.get("ops", [])),
            version=int(raw.get("version", 0)),
            target=raw.get("target"),
        )

    @classmethod
    def build(cls, cfg: Any, ops: Sequence[Any]) -> "RunManifest":
        config = config_fingerprint_fields(cfg)
        shapes = [op_shape(op) for op in ops]
        return cls(
            fingerprint=run_fingerprint(config, shapes),
            config=config,
            ops=shapes,
            target=cfg.run_target,
        )

    def describe_mismatch(self, other: "RunManifest") -> str:
        """Human-readable diff for :class:`CheckpointMismatchError`."""
        parts: List[str] = []
        if self.version != other.version:
            parts.append(
                f"format version {self.version} vs {other.version}"
            )
        for name in sorted(set(self.config) | set(other.config)):
            mine = self.config.get(name)
            theirs = other.config.get(name)
            if mine != theirs:
                parts.append(f"{name}: {mine!r} vs {theirs!r}")
        if [o.get("name") for o in self.ops] != [
            o.get("name") for o in other.ops
        ]:
            parts.append(
                "operations: "
                f"{[o.get('name') for o in self.ops]} vs "
                f"{[o.get('name') for o in other.ops]}"
            )
        else:
            for mine, theirs in zip(self.ops, other.ops):
                if mine != theirs:
                    parts.append(
                        f"op {mine.get('name')!r}: {mine} vs {theirs}"
                    )
        return "; ".join(parts) or "fingerprints differ"


def journal_path(directory: str) -> str:
    return os.path.join(directory, JOURNAL_NAME)


# ---------------------------------------------------------------------------
# Chunk journal
# ---------------------------------------------------------------------------


@dataclass
class ChunkRecord:
    """One completed chunk, as journaled.

    ``tasks`` holds ``(index, duration_seconds, value, attempt)`` per
    task — everything needed to restore reduction partials exactly and
    to re-seed the TAPER mean/variance sample (``attempt > 0`` tasks
    are excluded from statistics on replay, mirroring the live run's
    first-attempt-only sampling).
    """

    op_index: int
    label: str
    worker: int
    time: float
    tasks: List[Tuple[int, float, float, int]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op_index,
            "label": self.label,
            "worker": self.worker,
            "t": self.time,
            "tasks": [list(task) for task in self.tasks],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ChunkRecord":
        return cls(
            op_index=int(raw["op"]),
            label=str(raw.get("label", "")),
            worker=int(raw.get("worker", -1)),
            time=float(raw.get("t", 0.0)),
            tasks=[
                (int(t[0]), float(t[1]), float(t[2]), int(t[3]))
                for t in raw["tasks"]
            ],
        )

    @property
    def value_total(self) -> float:
        return sum(task[2] for task in self.tasks)


@dataclass
class PageMark:
    """One stream page's durable admission watermark.

    Appended (and fsynced) the moment a :class:`StreamOp` page is
    admitted, *before* any of its chunks dispatch.  On resume the marks
    say which pages the killed run had pulled from the source — the
    coordinator re-admits exactly those pages (verifying ``seq`` /
    ``base`` / ``tasks`` against what the regenerated source yields) and
    settles journaled task results only inside marked page bounds
    (:func:`restorable`), so a torn record can never smuggle results
    past the last durable page.
    """

    op_index: int
    seq: int
    base: int
    tasks: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "page": self.seq,
            "op": self.op_index,
            "base": self.base,
            "tasks": self.tasks,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "PageMark":
        return cls(
            op_index=int(raw["op"]),
            seq=int(raw["page"]),
            base=int(raw["base"]),
            tasks=int(raw["tasks"]),
        )


def _encode_body(payload: Dict[str, Any]) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    return f"{crc:08x} {body}"


def encode_record(record: ChunkRecord) -> str:
    """``<crc32-hex> <canonical-json>`` — one journal line."""
    return _encode_body(record.to_dict())


def encode_mark(mark: PageMark) -> str:
    """A :class:`PageMark` as one journal line (same framing)."""
    return _encode_body(mark.to_dict())


def _decode_body(line: str) -> Optional[Dict[str, Any]]:
    """The JSON object of one journal line; ``None`` if torn or corrupt."""
    line = line.rstrip("\n")
    if len(line) < 10 or line[8] != " ":
        return None
    body = line[9:]
    try:
        if int(line[:8], 16) != zlib.crc32(body.encode()) & 0xFFFFFFFF:
            return None
        raw = json.loads(body)
    except ValueError:
        return None
    return raw if isinstance(raw, dict) else None


def decode_line(line: str):
    """Parse one journal line into a :class:`ChunkRecord` or
    :class:`PageMark`; ``None`` for corrupt/truncated lines."""
    raw = _decode_body(line)
    if raw is None:
        return None
    try:
        if "page" in raw:
            return PageMark.from_dict(raw)
        return ChunkRecord.from_dict(raw)
    except (ValueError, KeyError, TypeError, IndexError):
        return None


class JournalFailedError(OSError):
    """A journal ``write`` or ``fsync`` failed, so the run stops.

    After a failed fsync the kernel may have dropped the dirty pages and
    report the next fsync clean, so the writer never retries: it cuts
    the file back to what its last good fsync covered, acknowledges
    nothing more, and the run ends on this error.  ``durable`` counts
    the records that survive, header excluded.
    """

    def __init__(self, call: str, error: OSError, durable: int):
        super().__init__(
            error.errno,
            f"journal {call} failed: {error.strerror or error}; "
            f"{durable} records durable, nothing after them is trusted",
        )
        self.call = call
        self.durable = durable


class ChunkJournal:
    """The journal's one writer; the durability contract it keeps is the
    module docstring's.

    ``header`` starts a fresh journal (truncating any old one) with that
    manifest as its first line; without it the writer appends to what is
    there — a resume.  ``sync_interval`` is a floor, in records, between
    work-triggered fsyncs; a run journals at the default of 1.
    ``fault(call)`` runs before each record ``write`` and each
    ``fsync`` and may raise the ``OSError`` a failing disk would
    (``FaultInjector.on_journal``); the first one, real or injected,
    is a :class:`JournalFailedError`.
    """

    def __init__(
        self,
        directory: str,
        sync_interval: int = 1,
        header: Optional[RunManifest] = None,
        fault: Optional[Callable[[str], None]] = None,
    ):
        self.path = journal_path(directory)
        self.sync_interval = max(1, int(sync_interval))
        self.records_written = 0
        self.bytes_written = 0
        self.syncs = 0
        self.failed: Optional[JournalFailedError] = None
        self._fault = fault
        self._synced_bytes = 0
        self._synced_records = 0
        self._since_sync = 0
        self._at_risk_s = 0.0
        os.makedirs(directory, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        self._fd: Optional[int] = os.open(
            self.path, flags | (os.O_TRUNC if header is not None else 0)
        )
        self._base = os.lseek(self._fd, 0, os.SEEK_END)
        if header is not None:
            self._write(_encode_body(header.to_dict()))
        elif self._base:
            # Never glue a record to a torn tail (blank lines are skipped).
            self._write("")
        #: Where a failure cuts the file back to: the end of what the
        #: last good fsync covered, and never into the header.
        self._durable_end = self._base + self.bytes_written

    def _write(self, line: str) -> None:
        data = (line + "\n").encode()
        while data:
            data = data[os.write(self._fd, data):]
        self.bytes_written += len(line) + 1

    def _io(self, call: str, action: Callable[[], None]) -> None:
        """One record write or fsync; the first failure ends the
        journal (cut back to its last good fsync) and is raised."""
        if self.failed is not None:
            raise self.failed
        try:
            if self._fault is not None:
                self._fault(call)
            action()
        except OSError as error:
            try:
                os.ftruncate(self._fd, self._durable_end)
            except OSError:  # the disk refuses that too: CRCs remain
                pass
            self.failed = JournalFailedError(
                call, error, self._synced_records
            )
            raise self.failed from error

    @property
    def unsynced_bytes(self) -> int:
        return self.bytes_written - self._synced_bytes

    def append(self, record: ChunkRecord) -> bool:
        """Write one record; returns True when this append fsynced."""
        self._io("write", lambda: self._write(encode_record(record)))
        self.records_written += 1
        self._since_sync += 1
        self._at_risk_s += sum(task[1] for task in record.tasks)
        if (
            self._since_sync < self.sync_interval
            or self._at_risk_s < SYNC_WORTH_S
        ):
            return False
        self.sync()
        return True

    def append_mark(self, mark: PageMark) -> None:
        """Write one page mark and fsync immediately.

        A mark is a durable *admission barrier*: results for its page
        may enter the journal only after the mark itself is on disk, so
        every append_mark pays the fsync regardless of the configured
        sync interval.  That cost is the journal-writer half of stream
        backpressure — a slow disk slows admission, by design.
        """
        self._io("write", lambda: self._write(encode_mark(mark)))
        self.records_written += 1
        self.sync()

    def sync(self) -> None:
        """A durability point: fsync unless everything already is."""
        if self._fd is None or not self.unsynced_bytes:
            return
        self._io("fsync", lambda: os.fsync(self._fd))
        self.syncs += 1
        self._synced_bytes = self.bytes_written
        self._durable_end = self._base + self.bytes_written
        self._synced_records = self.records_written
        self._since_sync = 0
        self._at_risk_s = 0.0

    def close(self) -> None:
        """The last durability point.  A failed sync is raised: the
        records never reached the disk, so the run must not report what
        they hold.  Closing in a ``finally`` while another exception
        propagates, it raises nothing, so as not to mask that one; a
        journal that already failed is closed without another sync."""
        if self._fd is None:
            return
        propagating = sys.exc_info()[1] is not None
        try:
            if self.failed is None:
                self.sync()
        except OSError:
            if not propagating:
                raise
        finally:
            os.close(self._fd)
            self._fd = None


@dataclass
class JournalReplay:
    """Everything a resumed coordinator learns from the journal."""

    #: The header line: the run the journal belongs to.
    manifest: Optional[RunManifest] = None
    records: List[ChunkRecord] = field(default_factory=list)
    #: Stream page marks, in admission order per op (first write wins).
    marks: List[PageMark] = field(default_factory=list)
    #: Corrupt/truncated lines skipped during the scan.
    dropped: int = 0
    #: Duplicate (op, task) completions ignored (speculation dedup).
    duplicates: int = 0

    @property
    def tasks_restored(self) -> int:
        return sum(len(record.tasks) for record in self.records)

    @property
    def chunks_restored(self) -> int:
        return len(self.records)


def _scan(directory: str, lines: bool) -> Tuple[RunManifest, List[Any]]:
    """The one reader: the header, then (if ``lines``) every non-blank
    line after it decoded (``None`` = corrupt)."""
    path = journal_path(directory)
    try:
        # A byte flipped out of UTF-8 decodes to a CRC failure, not a raise.
        with open(path, errors="replace") as handle:
            header = _decode_body(handle.readline())
            if (
                header is None
                or header.get("version") != FORMAT_VERSION
                or "fingerprint" not in header
            ):
                raise CheckpointError(
                    f"{path} does not start with a format-{FORMAT_VERSION} "
                    "checkpoint header: it is torn, not a checkpoint, or "
                    "was written by format 1 (manifest.json beside the "
                    "journal), which this version cannot resume"
                )
            body = handle if lines else ()
            return RunManifest.from_dict(header), [
                decode_line(line) for line in body if line.strip()
            ]
    except OSError as error:
        raise CheckpointError(
            f"no checkpoint journal at {path} ({error}); was this run "
            "started with RunConfig.checkpoint_dir set?"
        ) from error


def load_manifest(directory: str) -> RunManifest:
    return _scan(directory, lines=False)[0]


def read_journal(directory: str) -> JournalReplay:
    """Scan the journal, dropping (only) corrupt records.

    The journal is append-only, so corruption is almost always a torn
    tail record from a mid-write crash; the scan nevertheless checks
    every line's CRC so a flipped bit mid-file also costs exactly that
    record, not the run.  Task indices already seen for an operation
    are dropped as duplicates — a speculative duplicate completion that
    raced its primary into the journal replays once.  The header comes
    back as ``manifest``; a missing or torn one is a
    :class:`CheckpointError`, not an empty replay.
    """
    manifest, lines = _scan(directory, lines=True)
    replay = JournalReplay(manifest=manifest)
    seen: Dict[int, set] = {}
    seen_marks: set = set()
    for record in lines:
        if record is None:
            replay.dropped += 1
            continue
        if isinstance(record, PageMark):
            if (record.op_index, record.seq) not in seen_marks:
                seen_marks.add((record.op_index, record.seq))
                replay.marks.append(record)
            continue
        seen_op = seen.setdefault(record.op_index, set())
        fresh = []
        for task in record.tasks:
            if task[0] in seen_op:
                replay.duplicates += 1
                continue
            seen_op.add(task[0])
            fresh.append(task)
        if fresh:
            record.tasks = fresh
            replay.records.append(record)
    return replay


#: One op's restorable work: ``(mark, chunks)`` per page, in ``seq``
#: order from 0, each chunk cut down to its trusted tasks.  A fixed op
#: is the one-page case, without a mark.
Pages = List[Tuple[Optional[PageMark], List[ChunkRecord]]]


def restorable(replay: JournalReplay) -> Dict[int, Pages]:
    """What of ``replay`` a resumed run may settle, by op index: the
    journal's trust rules, stated once (:class:`PageMark` says why they
    hold).

    * Page marks count only as a contiguous ``seq`` prefix per op: they
      are fsynced in admission order, so a gap is torn data and every
      mark past it goes with it.
    * A stream task counts only inside a page that counts.
    * A fixed op's task counts only inside the op's size, as the
      header's :func:`op_shape` recorded it.

    A record naming an op the header does not hold counts nowhere, and a
    task comes back at most once (:func:`read_journal` dropped the
    duplicates).
    """
    shapes = replay.manifest.ops
    streams = {
        op_index
        for op_index, shape in enumerate(shapes)
        if shape["size"] == "stream"
    }
    trusted: Dict[int, Pages] = {}
    for mark in sorted(replay.marks, key=lambda m: (m.op_index, m.seq)):
        if mark.op_index in streams:
            pages = trusted.setdefault(mark.op_index, [])
            if mark.seq == len(pages):
                pages.append((mark, []))
    starts = {
        op_index: [mark.base for mark, _chunks in pages]
        for op_index, pages in trusted.items()
    }
    for record in replay.records:
        op_index = record.op_index
        by_page: Dict[int, list] = {}
        if op_index in streams:
            pages, bases = trusted.get(op_index, []), starts.get(op_index, [])
            for task in record.tasks:
                at = bisect.bisect_right(bases, task[0]) - 1
                mark = pages[at][0] if at >= 0 else None
                if mark is not None and task[0] < mark.base + mark.tasks:
                    by_page.setdefault(at, []).append(task)
        elif 0 <= op_index < len(shapes):
            size = shapes[op_index]["size"]
            tasks = [task for task in record.tasks if 0 <= task[0] < size]
            if tasks:
                by_page[0] = tasks
                pages = trusted.setdefault(op_index, [(None, [])])
        for at, tasks in by_page.items():
            pages[at][1].append(replace(record, tasks=tasks))
    return trusted


def init_checkpoint_dir(directory: str, manifest: RunManifest) -> None:
    """Start a fresh checkpoint: a journal holding only its header,
    durably — on its own it resumes as a run with nothing restored."""
    ChunkJournal(directory, header=manifest).close()
