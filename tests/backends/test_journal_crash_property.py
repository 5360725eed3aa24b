"""Crash-at-any-offset property of the chunk journal.

Generated sequences of appends, page marks, explicit syncs and a close
run against a real file with ``os.fsync`` (as ``repro.runtime.checkpoint``
calls it) patched to record the offset each sync covered.  A host crash
is modelled as truncation at any byte at or after the last synced one.
The trust rules a resume applies to what survives (``restorable``) are
checked against a model on generated journals.
"""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.checkpoint import (
    SYNC_WORTH_S,
    CheckpointError,
    ChunkJournal,
    ChunkRecord,
    PageMark,
    RunManifest,
    journal_path,
    read_journal,
    restorable,
)

MANIFEST = RunManifest(fingerprint="f" * 64, config={"backend": "mp"}, ops=[])

#: Per-task durations around SYNC_WORTH_S: free, cheap, worth a fraction
#: of a sync, worth one outright.
DURATIONS = st.sampled_from(
    [0.0, SYNC_WORTH_S / 12, SYNC_WORTH_S / 2, SYNC_WORTH_S * 1.2]
)
STEPS = st.lists(
    st.one_of(
        st.lists(DURATIONS, min_size=1, max_size=4),  # a chunk record
        st.sampled_from(["mark", "sync"]),
    ),
    max_size=12,
)


class Run:
    """One generated sequence applied to a real journal, with the model
    the properties are checked against."""

    def __init__(self, directory, interval):
        self.directory = directory
        self.interval = interval
        self.synced_to = 0  # offset the last fsync covered
        self.lines = []  # (end offset, ChunkRecord | PageMark), in order
        self.next_task = 0

        def fsync(fd):
            self.synced_to = os.fstat(fd).st_size

        self.patch = mock.patch("repro.runtime.checkpoint.os.fsync", fsync)
        with self.patch:
            self.journal = ChunkJournal(directory, interval, header=MANIFEST)
        self.header_end = self.size()

    def size(self):
        return os.path.getsize(journal_path(self.directory))

    def unsynced(self):
        """(records, task seconds) appended past the last synced offset."""
        tail = [
            entry
            for end, entry in self.lines
            if end > self.synced_to and isinstance(entry, ChunkRecord)
        ]
        return len(tail), sum(t[1] for entry in tail for t in entry.tasks)

    def step(self, step):
        with self.patch:
            if step == "sync":
                self.journal.sync()
            elif step == "close":
                self.journal.close()
            elif step == "mark":
                seq = sum(isinstance(e, PageMark) for _, e in self.lines)
                mark = PageMark(op_index=0, seq=seq, base=seq * 8, tasks=8)
                self.journal.append_mark(mark)
                self.lines.append((self.size(), mark))
            else:
                tasks = []
                for duration in step:
                    tasks.append((self.next_task, duration, 1.0, 0))
                    self.next_task += 1
                record = ChunkRecord(0, "op", 0, 0.0, tasks)
                synced = self.journal.append(record)
                self.lines.append((self.size(), record))
                assert synced == (self.synced_to == self.size())
        return step if isinstance(step, str) else "append"


def generated(test):
    """Call ``test(run, after)`` after every step of generated journals:
    ``after`` names the step (``"append"``, ``"mark"``, ``"sync"``,
    ``"close"``), and is ``"end"`` once the sequence is over."""

    @settings(max_examples=50, deadline=None)
    @given(steps=STEPS, interval=st.integers(1, 3), close=st.booleans())
    def generated_test(steps, interval, close):
        with tempfile.TemporaryDirectory() as scratch:
            run = Run(os.path.join(scratch, "live"), interval)
            for step in steps + (["close"] if close else []):
                test(run, run.step(step))
            test(run, "end")

    generated_test.__name__ = test.__name__
    return generated_test


@generated
def test_unsynced_work_is_bounded(run, after):
    # (i) Once `interval` records share it, un-synced task work stays
    # under SYNC_WORTH_S: at the default interval a host crash costs
    # less than SYNC_WORTH_S plus the one record being written.
    records, work = run.unsynced()
    assert records < run.interval or work < SYNC_WORTH_S


@generated
def test_durability_points_leave_nothing_unsynced(run, after):
    # (ii) A page mark, an explicit sync (the drain / sink points) and
    # close (the result point) each cover every byte written so far.
    if after in ("mark", "sync", "close"):
        assert run.synced_to == run.size()
        assert run.journal.unsynced_bytes == 0


@generated
def test_truncation_past_the_last_sync_replays_a_prefix(run, after):
    # (iii) Whatever byte the host crash cuts at, the replay is the
    # appended lines up to some point: never corrupt, never reordered.
    if after != "end":
        return
    with open(journal_path(run.directory), "rb") as handle:
        data = handle.read()
    crashed = run.directory + ".crashed"
    os.makedirs(crashed)
    for cut in range(run.synced_to, len(data) + 1):
        with open(journal_path(crashed), "wb") as handle:
            handle.write(data[:cut])
        # A line whose bytes all survived, bar its newline, is whole.
        if cut < run.header_end - 1:
            # Only a journal never synced can lose its header, and then
            # it is refused, not replayed as an empty run.
            assert run.synced_to == 0
            with pytest.raises(CheckpointError):
                read_journal(crashed)
            continue
        whole = [(end, entry) for end, entry in run.lines if end - 1 <= cut]
        replay = read_journal(crashed)
        assert [r.tasks for r in replay.records] == [
            e.tasks for _, e in whole if isinstance(e, ChunkRecord)
        ]
        assert [(m.seq, m.base, m.tasks) for m in replay.marks] == [
            (e.seq, e.base, e.tasks)
            for _, e in whole
            if isinstance(e, PageMark)
        ]
        last_whole = whole[-1][0] if whole else run.header_end
        assert replay.dropped == int(cut > last_whole)
        assert replay.duplicates == 0


#: Two fixed ops and two streams, as a header's op shapes say them.
SIZES = (5, "stream", 3, "stream")
SHAPES = [{"name": f"op{i}", "size": size} for i, size in enumerate(SIZES)]
PAGE_TASKS = st.lists(st.integers(0, 4), min_size=1, max_size=5)
#: The page seqs a stream's marks name: gaps, repeats, any order.
MARKED = st.lists(st.integers(0, 4), max_size=6)


@settings(max_examples=100, deadline=None)
@given(
    pages=st.tuples(PAGE_TASKS, PAGE_TASKS),
    marked=st.tuples(MARKED, MARKED),
    records=st.lists(
        st.tuples(
            st.integers(-1, len(SIZES)),  # op index, past both ends too
            st.lists(st.integers(-2, 24), min_size=1, max_size=4),
        ),
        max_size=8,
    ),
)
def test_only_tasks_inside_the_mark_prefix_and_op_bounds_restore(
    pages, marked, records
):
    """Generated journals with gaps in page ``seq``, records past the
    last mark and indices past a fixed op's size: ``restorable`` keeps a
    task iff it lies inside its op's size, or inside a page of the
    contiguous mark prefix, and keeps it once."""
    streams = [index for index, size in enumerate(SIZES) if size == "stream"]
    bounds = {}  # stream op -> [(base, end)] of its pages, by seq
    with tempfile.TemporaryDirectory() as scratch, mock.patch(
        "repro.runtime.checkpoint.os.fsync"
    ):
        manifest = RunManifest(fingerprint="f" * 64, config={}, ops=SHAPES)
        journal = ChunkJournal(scratch, header=manifest)
        for op_index, sizes, seqs in zip(streams, pages, marked):
            starts = [sum(sizes[:seq]) for seq in range(len(sizes))]
            bounds[op_index] = [
                (base, base + size) for base, size in zip(starts, sizes)
            ]
            for seq in seqs:
                if seq < len(sizes):
                    journal.append_mark(
                        PageMark(op_index, seq, starts[seq], sizes[seq])
                    )
        for op_index, indices in records:
            journal.append(
                ChunkRecord(
                    op_index, "op", 0, 0.0,
                    [(index, 0.0, 1.0, 0) for index in indices],
                )
            )
        journal.close()
        replay = read_journal(scratch)
    trusted = restorable(replay)
    marks = {(mark.op_index, mark.seq) for mark in replay.marks}

    def trusted_by_model(op_index, index):
        if not 0 <= op_index < len(SIZES):
            return False
        if SIZES[op_index] != "stream":
            return 0 <= index < SIZES[op_index]
        prefix = 0
        while (op_index, prefix) in marks:
            prefix += 1
        return any(
            base <= index < end for base, end in bounds[op_index][:prefix]
        )

    journaled = {
        (record.op_index, task[0])
        for record in replay.records
        for task in record.tasks
    }
    kept = []
    for op_index, pages in trusted.items():
        if SIZES[op_index] == "stream":
            assert [mark.seq for mark, _chunks in pages] == list(
                range(len(pages))
            )
        else:
            assert [mark for mark, _chunks in pages] == [None]
        for mark, chunks in pages:
            for chunk in chunks:
                for task in chunk.tasks:
                    if mark is not None:
                        assert mark.base <= task[0] < mark.base + mark.tasks
                    kept.append((op_index, task[0]))
    assert len(kept) == len(set(kept))
    assert set(kept) == {
        key for key in journaled if trusted_by_model(*key)
    }
