"""Durable runs: the chunk journal and run manifest (checkpoint layer).

The mp backend's unit of recovery has always been the *chunk* — an
idempotent, re-executable slice of one operation's index space (the
same property Palkar & Zaharia's split annotations exploit: a split
that can be re-run is a split that can be restarted).  This module
makes that property durable:

* :class:`RunManifest` — written once at run start: a fingerprint of
  every scheduling-relevant config field plus the operation shapes, so
  a resume against a *different* run is refused instead of silently
  producing garbage;
* :class:`ChunkJournal` — an append-only, CRC-checked record stream,
  one record per completed chunk (task indices, per-task cost samples
  and reduction partials, attempt counts).  Records are flushed on
  every append and fsynced every ``checkpoint_interval`` records, so a
  coordinator crash loses at most the chunks completed since the last
  sync — and a torn tail write is *detected* (bad CRC / truncated
  JSON) and dropped, never replayed as data;
* :func:`read_journal` — the replay path: skips corrupt records,
  de-duplicates task indices (a speculative duplicate journaled twice
  counts once), and hands the coordinator everything it needs to
  re-seed TAPER cost statistics and re-ration only the remaining work.

The journal lives next to the manifest in ``RunConfig.checkpoint_dir``:

    checkpoint_dir/
        manifest.json    # RunManifest (fingerprint, config, op shapes)
        journal.jsonl    # one "<crc8> <json>" line per completed chunk
        run.json         # CLI-level target (written by repro.api)

Self-contained: imports nothing from the rest of the runtime (like
``faults.py``) so ``config`` and ``backends`` can both use it freely.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Journal/manifest format version; bump on incompatible layout changes.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
TARGET_NAME = "run.json"

#: RunConfig fields that determine the schedule (and therefore whether a
#: journal can be replayed against a config).  Operational knobs —
#: timeouts, heartbeats, fault plans, tracers, the checkpoint fields
#: themselves — are deliberately excluded: retrying with a different
#: heartbeat or without fault injection is exactly what resume is *for*.
FINGERPRINT_FIELDS = (
    "backend",
    "processors",
    "policy",
    "allocator",
    "work_conserving",
    "min_chunk",
    "sample_tasks",
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
        # A stream's size and costs grow as pages are admitted, so they
        # cannot pin its identity; the shape is stable by construction
        # and per-page identity is checked against journaled PageMarks
        # at re-admission instead.
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


def run_fingerprint(cfg: Any, ops: Sequence[Any]) -> str:
    """One stable hash over config + operation shapes."""
    payload = {
        "version": FORMAT_VERSION,
        "config": config_fingerprint_fields(cfg),
        "ops": [op_shape(op) for op in ops],
    }
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "ops": self.ops,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RunManifest":
        return cls(
            fingerprint=raw["fingerprint"],
            config=dict(raw.get("config", {})),
            ops=list(raw.get("ops", [])),
            version=int(raw.get("version", 0)),
        )

    @classmethod
    def build(cls, cfg: Any, ops: Sequence[Any]) -> "RunManifest":
        return cls(
            fingerprint=run_fingerprint(cfg, ops),
            config=config_fingerprint_fields(cfg),
            ops=[op_shape(op) for op in ops],
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


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def journal_path(directory: str) -> str:
    return os.path.join(directory, JOURNAL_NAME)


def write_manifest(directory: str, manifest: RunManifest) -> str:
    os.makedirs(directory, exist_ok=True)
    path = manifest_path(directory)
    with open(path, "w") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    return path


def load_manifest(directory: str) -> RunManifest:
    path = manifest_path(directory)
    if not os.path.exists(path):
        raise CheckpointError(
            f"no checkpoint manifest at {path}; was this run started "
            "with RunConfig.checkpoint_dir set?"
        )
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"unreadable checkpoint manifest at {path}: {error}"
        ) from error
    return RunManifest.from_dict(raw)


# ---------------------------------------------------------------------------
# CLI target sidecar (written by repro.api so `--resume DIR` needs no
# target argument)
# ---------------------------------------------------------------------------


def save_run_target(
    directory: str, target: str, overrides: Optional[Dict[str, Any]] = None
) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, TARGET_NAME)
    with open(path, "w") as handle:
        json.dump(
            {"target": target, "overrides": dict(overrides or {})},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    return path


def load_run_target(directory: str) -> Optional[Dict[str, Any]]:
    path = os.path.join(directory, TARGET_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


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
    accepts journaled task results only inside marked page bounds, so a
    torn record can never smuggle results past the last durable page.
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


def decode_line(line: str):
    """Parse one journal line into a :class:`ChunkRecord` or
    :class:`PageMark`; ``None`` for corrupt/truncated lines."""
    line = line.rstrip("\n")
    if not line.strip():
        return None
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, body = line[:8], line[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if (zlib.crc32(body.encode()) & 0xFFFFFFFF) != expected:
        return None
    try:
        raw = json.loads(body)
        if "page" in raw:
            return PageMark.from_dict(raw)
        return ChunkRecord.from_dict(raw)
    except (ValueError, KeyError, TypeError, IndexError):
        return None


def decode_record(line: str) -> Optional[ChunkRecord]:
    """Parse one journal line; ``None`` for corrupt lines and marks."""
    decoded = decode_line(line)
    return decoded if isinstance(decoded, ChunkRecord) else None


class ChunkJournal:
    """Append-only journal writer with bounded-loss durability.

    Every :meth:`append` flushes to the OS (a coordinator *crash* loses
    nothing already appended); every ``sync_interval`` appends the file
    is fsynced (a *host* crash loses at most one interval of chunks).
    """

    def __init__(self, directory: str, sync_interval: int = 1):
        self.path = journal_path(directory)
        self.sync_interval = max(1, int(sync_interval))
        self._since_sync = 0
        self.records_written = 0
        self.bytes_written = 0
        os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a")

    def append(self, record: ChunkRecord) -> bool:
        """Write one record; returns True when this append fsynced."""
        line = encode_record(record) + "\n"
        self._handle.write(line)
        self._handle.flush()
        self.records_written += 1
        self.bytes_written += len(line)
        self._since_sync += 1
        synced = False
        if self._since_sync >= self.sync_interval:
            os.fsync(self._handle.fileno())
            self._since_sync = 0
            synced = True
        return synced

    def append_mark(self, mark: PageMark) -> None:
        """Write one page mark and fsync immediately.

        A mark is a durable *admission barrier*: results for its page
        may enter the journal only after the mark itself is on disk, so
        every append_mark pays the fsync regardless of the configured
        sync interval.  That cost is the journal-writer half of stream
        backpressure — a slow disk slows admission, by design.
        """
        line = encode_mark(mark) + "\n"
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records_written += 1
        self.bytes_written += len(line)
        self._since_sync = 0

    def sync(self) -> None:
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if not self._handle.closed:
            try:
                self.sync()
            except (OSError, ValueError):  # pragma: no cover - best effort
                pass
            self._handle.close()


@dataclass
class JournalReplay:
    """Everything a resumed coordinator learns from the journal."""

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


def read_journal(directory: str) -> JournalReplay:
    """Scan the journal, dropping (only) corrupt records.

    The journal is append-only, so corruption is almost always a torn
    tail record from a mid-write crash; the scan nevertheless checks
    every line's CRC so a flipped bit mid-file also costs exactly that
    record, not the run.  Task indices already seen for an operation
    are dropped as duplicates — a speculative duplicate completion that
    raced its primary into the journal replays once.
    """
    replay = JournalReplay()
    path = journal_path(directory)
    if not os.path.exists(path):
        return replay
    seen: Dict[int, set] = {}
    seen_marks: set = set()
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = decode_line(line)
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


def init_checkpoint_dir(directory: str, manifest: RunManifest) -> None:
    """Start a fresh checkpoint: write the manifest, truncate the journal."""
    write_manifest(directory, manifest)
    with open(journal_path(directory), "w"):
        pass
