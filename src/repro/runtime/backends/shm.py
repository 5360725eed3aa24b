"""Zero-copy shared-memory data plane for worker pools.

The pickle data plane ships an op's full payload list to every worker
that runs it, so serialization is O(P x total payload bytes) and
results flow back as per-record pickles.  This module is the
alternative the paper's data-movement argument calls for (and Palkar &
Zaharia's *Split Annotations* measure): payloads are laid out **once**
in ``multiprocessing.shared_memory`` segments, workers attach numpy
views zero-copy, dispatch messages carry only task indices, and each
chunk's values are written in place into a shared per-op result buffer
— only ``(index, start, duration)`` timing records cross the queue.

Layout per shm-planned op (two segments, created by the pool's owner):

* **payload segment** — the op's payloads as one C-order array with a
  leading task axis.  Three plans cover the kernels we ship:

  - ``"array"``  — every payload is an ndarray of identical shape/dtype;
    the segment holds them back to back (what ``np.stack`` gives), task
    k's payload is row k (a read-only view).  Rows of at least
    :data:`INPLACE_ROW_BYTES` are planned as a :class:`RowLayout` of
    the caller's own arrays, so no stacked copy of them is made.
  - ``"scalar"`` — every payload is an ``int`` (or every one a
    ``float``); a 1-D ``int64``/``float64`` array, task k's payload is
    ``view[k].item()`` (the exact Python type restored).
  - ``"tuple"``  — every payload is a same-length tuple of all-``int``
    (or all-``float``) scalars; a 2-D array, task k's payload is
    ``tuple(view[k].tolist())``.

  Anything else (mixed types, object dtypes, ragged shapes, ints
  overflowing int64) is ineligible and stays on the pickle plane —
  :func:`place` is the one place that decides, once per op key (a
  stream page is a key like any other).

* **result segment** — ``float64[size]``, zero-initialised.  Workers
  write ``result[index] = kernel(payload)`` in place; the pool reads the
  slot when the chunk's timing report arrives.  Duplicate writers
  (speculation, retries after a partial report) are harmless: the
  coordinator's completed-set dedup counts the first *report* of a task
  exactly once, and with deterministic kernels every copy writes the
  identical value, so the buffer's final content is well defined either
  way.  The buffer is a transport, not a store: values are journalled by
  value and a resumed run reads no surviving slot.

Who creates, who unlinks and on which exit path is the data-plane
contract of :class:`~repro.runtime.backends.base.Fleet`; this module is
the mechanism.  The process that lays a segment out is its only
unlinker.  The stdlib ``resource_tracker`` is a backstop, not a
participant: workers share their pool's tracker process (its pipe is
inherited under both fork and spawn), so their attach-time
re-registrations collapse into the creator's single entry, which its
``unlink()`` clears.

Resident pools keep payload segments across runs in a
:class:`SegmentCache`; when a cached segment may stand in for a payload
(the identity contract) is stated once, in that class's docstring.

Everything degrades gracefully without numpy: :func:`shm_available`
gates the whole plane, so every op falls back to pickle.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import secrets
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

try:  # numpy is optional: without it every op uses the pickle plane.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm
    _shared_memory = None

#: Segment-name prefix: distinctive for the leak checks, short enough
#: that the full name stays under macOS's ~31-char shm name limit.
SEGMENT_PREFIX = "repro"

#: Payloads are shm-planned only when, laid out, they reach this size —
#: two segment creations plus per-worker attaches are not worth it for a
#: few kilobytes.
AUTO_MIN_BYTES = 64 * 1024

#: Default :class:`SegmentCache` byte budget.  A long-lived daemon
#: seeing many distinct payload sets must not grow its cache without
#: bound — ``/dev/shm`` is finite — so the cache evicts least-recently
#: used unpinned segments past this ceiling (override per daemon with
#: ``--shm-cache-bytes``; 0 means unbounded).
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: The probe key of :meth:`SegmentCache.fingerprint` reads at most
#: ``PROBE_WINDOWS`` evenly spaced windows of ``PROBE_WINDOW`` bytes.
PROBE_WINDOWS = 64
PROBE_WINDOW = 1024

#: Bytes compared per ``array_equal`` call when a probe hit is verified:
#: both blocks stay in cache and a difference ends the scan early.
_COMPARE_BLOCK = 256 * 1024

#: Same-shape array payloads of at least this many bytes a row — few
#: large rows — are planned in place as a :class:`RowLayout`; smaller
#: rows are stacked.  The key, the comparison and the fill pay a few
#: microseconds of Python per row in place, and one C copy of a row this
#: size costs about as much (measured per row size in EXPERIMENTS.md,
#: "Probe, then compare").
INPLACE_ROW_BYTES = 64 * 1024


def shm_available() -> bool:
    """Can this host run the shm plane at all (numpy + shared_memory)?"""
    return _np is not None and _shared_memory is not None


# ---------------------------------------------------------------------------
# Payload planning
# ---------------------------------------------------------------------------


def _plan_scalars(values: Sequence[Any]):
    """A homogeneous int64 or float64 array for all-int / all-float
    scalars, or ``None``.  ``bool`` is excluded (it is an ``int``
    subclass but kernels may rely on its type)."""
    if all(type(v) is int for v in values):
        dtype = _np.int64
    elif all(type(v) is float for v in values):
        dtype = _np.float64
    else:
        return None
    try:
        return _np.asarray(values, dtype=dtype)
    except (OverflowError, ValueError):  # e.g. ints beyond int64
        return None


@dataclass(frozen=True)
class RowLayout:
    """Same-shape ndarray payloads as their segment holds them, uncopied.

    ``shape``, ``dtype`` and ``nbytes`` are those of ``np.stack(rows)``
    (native byte order included); the bytes are the rows', read in
    place and in order, so a layout stands wherever the stacked array
    would — probe key, comparison, fill — at no cost but one row's
    conversion for a strided or byte-swapped row.  Every row has
    ``nbytes // len(rows)`` bytes.
    """

    rows: Tuple[Any, ...]
    shape: Tuple[int, ...]
    dtype: Any
    nbytes: int


def plan_payloads(payloads: Sequence[Any]):
    """Decide whether ``payloads`` can live in shared memory.

    Returns ``(mode, layout)`` — mode one of ``"array"``, ``"scalar"``,
    ``"tuple"``; layout a :class:`RowLayout` of the payloads themselves
    for ``"array"`` rows of at least :data:`INPLACE_ROW_BYTES`, else a
    fresh ndarray — or ``None`` when the op must stay on the pickle
    plane (including when numpy is absent).
    """
    if _np is None or not payloads:
        return None
    first = payloads[0]
    if isinstance(first, _np.ndarray):
        if first.dtype.hasobject or first.nbytes == 0:
            return None
        if not all(
            isinstance(p, _np.ndarray)
            and p.dtype == first.dtype
            and p.shape == first.shape
            for p in payloads
        ):
            return None
        if first.nbytes < INPLACE_ROW_BYTES:
            return ("array", _np.stack(payloads))
        layout = RowLayout(
            rows=tuple(payloads),
            shape=(len(payloads), *first.shape),
            dtype=_np.result_type(first.dtype),
            nbytes=len(payloads) * first.nbytes,
        )
        return ("array", layout)
    if type(first) in (int, float):
        stacked = _plan_scalars(payloads)
        if stacked is None:
            return None
        return ("scalar", stacked)
    if type(first) is tuple:
        width = len(first)
        if width == 0:
            return None
        if not all(type(p) is tuple and len(p) == width for p in payloads):
            return None
        flat = [v for p in payloads for v in p]
        stacked = _plan_scalars(flat)
        if stacked is None:
            return None
        return ("tuple", stacked.reshape(len(payloads), width))
    return None


def contiguous_span(indices: Sequence[int]) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` such that ``indices == range(lo, hi)``, else ``None``.

    TAPER chunks are contiguous runs of the index space by construction,
    so the batched path almost always gets a zero-copy slice; retries
    and speculative re-dispatches can carry gaps (already-completed
    tasks filtered out) and fall back to a gather.
    """
    if not indices:
        return None
    lo = indices[0]
    for offset, index in enumerate(indices):
        if index != lo + offset:
            return None
    return (lo, lo + len(indices))


def estimate_payload_nbytes(payload: Any) -> int:
    """A serialization-cost estimate of one payload (or payload list).

    Used for the bytes-shipped counters: measuring ``pickle.dumps``
    exactly would double the very serialization cost the counters
    exist to expose, so this is a structural estimate — ndarray buffer
    bytes, 8 per numeric scalar, recursive over tuples/lists, byte/str
    lengths, a flat 64 for anything opaque.
    """
    if _np is not None and isinstance(payload, _np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8", "replace"))
    if isinstance(payload, (tuple, list)):
        return sum(estimate_payload_nbytes(item) for item in payload)
    return 64


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


def _bytes_of(array, dtype=None):
    """``array``'s buffer as a flat ``uint8`` view (a copy only if strided
    or not already of ``dtype``)."""
    return _np.ascontiguousarray(array, dtype=dtype).reshape(-1).view(_np.uint8)


def _rows(payload):
    """``(rows, row_nbytes, dtype)`` of ``payload``'s segment bytes: a
    :class:`RowLayout`'s, or an ndarray as its one row."""
    if isinstance(payload, RowLayout):
        return payload.rows, payload.nbytes // len(payload.rows), payload.dtype
    return (payload,), payload.nbytes, None


def _extents(payload):
    """``payload``'s segment bytes in order, one flat ``uint8`` array a
    row, each converted only when reached."""
    rows, _, dtype = _rows(payload)
    return (_bytes_of(row, dtype) for row in rows)


def _pieces(payload, spans):
    """The bytes of ``spans`` — ``(lo, hi)`` offsets into ``payload``'s
    segment bytes — as slices of the rows they touch, in order; a span
    that straddles two rows comes out as two pieces.  No other row is
    read."""
    rows, size, dtype = _rows(payload)
    index = data = None
    for lo, hi in spans:
        while lo < hi:
            row, at = divmod(lo, size)
            if row != index:
                index, data = row, _bytes_of(rows[row], dtype)
            piece = data[at : at + hi - lo]
            yield piece
            lo += piece.size


def _probe_spans(nbytes: int) -> List[Tuple[int, int]]:
    """The byte ranges a probe key reads: everything up to
    ``PROBE_WINDOWS * PROBE_WINDOW`` bytes, past that ``PROBE_WINDOWS``
    evenly spaced windows, the first and the last bytes included."""
    if nbytes <= PROBE_WINDOWS * PROBE_WINDOW:
        return [(0, nbytes)]
    last = nbytes - PROBE_WINDOW
    starts = (last * i // (PROBE_WINDOWS - 1) for i in range(PROBE_WINDOWS))
    return [(start, start + PROBE_WINDOW) for start in starts]


def _same_bytes(segment, payload) -> bool:
    """Does ``segment`` hold exactly ``payload``'s bytes?

    Row by row against the matching slice of the segment, in blocks,
    stopping at the first difference.  Compared as unsigned bytes,
    never as floats: bit-identical NaNs are equal and ``0.0`` differs
    from ``-0.0``.  The views die with this frame, so nothing can keep
    the segment from closing afterwards.
    """
    theirs = _np.frombuffer(segment.buf, dtype=_np.uint8, count=payload.nbytes)
    step = _COMPARE_BLOCK
    at = 0
    for ours in _extents(payload):
        held = theirs[at : at + ours.size]
        at += ours.size
        for lo in range(0, ours.size, step):
            if not _np.array_equal(ours[lo : lo + step], held[lo : lo + step]):
                return False
    return True


def _pwritev_all(fd: int, buffers: List[Any], offset: int) -> int:
    """Write ``buffers`` back to back from ``offset``, resuming after a
    short write; returns the offset past the last byte."""
    while buffers:
        done = os.pwritev(fd, buffers, offset)
        offset += done
        whole = 0
        while whole < len(buffers) and done >= buffers[whole].size:
            done -= buffers[whole].size
            whole += 1
        del buffers[:whole]
        if done:
            buffers[0] = buffers[0][done:]
    return offset


def _fill(segment, payload) -> None:
    """Store ``payload``'s bytes at the start of a fresh or reclaimed
    ``segment``.

    On Linux, ``pwritev`` of its extents on the segment's descriptor, at
    most ``SC_IOV_MAX`` buffers a call: the kernel fills the tmpfs pages
    without a page fault apiece in a mapping this process never reads,
    and a full ``/dev/shm`` is ``OSError(ENOSPC)`` where a store through
    the mapping dies of SIGBUS.  Elsewhere each extent is stored through
    the mapping, the only path: POSIX leaves ``write`` on a shm
    descriptor unspecified, macOS refuses it, Windows has no descriptor.
    """
    fd = getattr(segment, "_fd", -1)
    extents = _extents(payload)
    if sys.platform == "linux" and fd >= 0:
        limit = os.sysconf("SC_IOV_MAX")
        offset = 0
        for batch in iter(lambda: list(itertools.islice(extents, limit)), []):
            offset = _pwritev_all(fd, batch, offset)
    else:
        view = _np.frombuffer(segment.buf, dtype=_np.uint8, count=payload.nbytes)
        at = 0
        for data in extents:
            view[at : at + data.size] = data
            at += data.size


def _discard(segment) -> None:
    """Detach and unlink one segment this process created."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - lingering view
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover
        pass


@dataclass(frozen=True)
class ShmOpDescriptor:
    """What a worker needs to attach one op's segments (picklable, tiny)."""

    op_index: int
    mode: str  # "array" | "scalar" | "tuple"
    payload_name: str
    payload_shape: Tuple[int, ...]
    payload_dtype: str
    result_name: str
    size: int

    @property
    def nbytes(self) -> int:
        count = 1
        for extent in self.payload_shape:
            count *= extent
        return count * _np.dtype(self.payload_dtype).itemsize + self.size * 8


class SegmentCache:
    """Content-addressed payload segments shared across pool sessions.

    A resident :class:`~repro.runtime.backends.pool.WorkerPool` carries
    one of these so warm runs with identical payloads skip the
    second-biggest startup cost after worker spawn: re-creating and
    re-filling the payload segments.

    **Identity contract.**  A cached segment stands in for a payload
    only after two steps.  (1) *Probe*: :meth:`fingerprint` is a sha256
    of ``mode | shape | dtype |`` and a fixed sample of the segment
    bytes (:func:`_probe_spans`; all of them for a small payload), so
    looking up 16 MiB reads 64 KiB.  (2) *Compare*:
    :meth:`ShmDataPlane.add_op` holds the :meth:`get` pin while it
    compares the segment with the payload byte for byte and reports the
    verdict to :meth:`confirm`.  Both read a :class:`RowLayout`'s rows
    in place, with the key and verdict its stacked array would give.
    Only a payload that passed the comparison is served from the cache
    (``hits``), so identity rests on the bytes themselves, not on
    collision resistance, and a segment damaged after caching is never
    served.  It is on bytes, not values, because workers read bytes:
    float ``==`` would reject identical NaNs and pass ``-0.0`` for
    ``0.0``.  A probe hit whose bytes differ (``collisions``) costs one
    partial comparison, then is an ordinary miss: laid out afresh, and
    :meth:`put` in place of the stale entry unless a live run pins it.

    The cache owns every segment it holds (created segments are
    *adopted* via :meth:`put`) and unlinks them all at :meth:`close`,
    or one at a time as it evicts them, unless it hands an evicted one
    back to be filled again (below).  Per-run
    :meth:`ShmDataPlane.close` never touches cached payloads, which is
    what keeps them warm.  Result segments are never cached, so never
    reclaimed: they are per-run output state, and a straggler still
    running a chunk of a finished key may write to one.

    Thread-safe: serve-mode jobs set up their planes on concurrent
    server threads.

    Bounded: the cache holds at most ``budget_bytes`` of payload
    segments (:data:`DEFAULT_CACHE_BYTES` unless overridden; ``0`` or
    ``None`` disables the bound).  An adoption past the budget evicts
    the least-recently-used *unpinned* entries — a segment is pinned
    while any live :class:`ShmDataPlane` borrows it, because workers
    attach by name and an unlinked name would strand a late attach.  A
    miss evicts them *before* it lays out (:meth:`make_room`), so
    ``/dev/shm`` does not overshoot the budget by the new payload, and
    an evicted segment of exactly the new payload's size is
    *reclaimed*: handed back under its old name, its tmpfs pages
    already allocated, for the miss to fill and :meth:`put` under the
    new key instead of unlinking it and creating a fresh one.
    Evictions are counted (``evictions``/``evicted_bytes``, a reclaimed
    one included; ``reclaims``) and logged for tracing via
    :meth:`take_evicted`.

    **Why a reclaim is safe.**  An entry is evictable only once
    unpinned: every plane that laid it out or borrowed it has closed,
    and a pool closes a key's plane only when it unloads the key, after
    queueing the unload behind that key's runs on every worker that
    loaded it.  So the only process that can still read the old bytes
    while new ones land is a straggler or a busy-released worker
    finishing a chunk of a finished key, and its report is stale and
    dropped by key, never counted; what it computes goes to its own
    key's result segment, which no reclaim touches.
    """

    def __init__(
        self, budget_bytes: Optional[int] = DEFAULT_CACHE_BYTES
    ) -> None:
        self._segments: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._pins: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.budget_bytes = budget_bytes if budget_bytes else None
        self.hits = 0
        self.misses = 0
        self.collisions = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.reclaims = 0
        self.total_bytes = 0
        self._evicted_log: List[Tuple[str, int, str, bool]] = []
        self.closed = False

    @staticmethod
    def fingerprint(mode: str, payload) -> str:
        """The probe key (step 1 of the identity contract) of an ndarray
        or a :class:`RowLayout`."""
        digest = hashlib.sha256(
            f"{mode}|{payload.shape}|{payload.dtype.str}|".encode("ascii")
        )
        for piece in _pieces(payload, _probe_spans(payload.nbytes)):
            digest.update(piece)
        return digest.hexdigest()

    def get(self, key: str) -> Optional[Tuple[Any, int]]:
        """The cached ``(segment, nbytes)`` under probe key ``key``, or
        ``None``.

        An entry freshens its recency *and is pinned*, but is not yet a
        hit: the borrower compares bytes and calls :meth:`confirm`, then
        must :meth:`unpin` when its run no longer needs the segment
        attachable (``ShmDataPlane.close`` does this for every key it
        borrowed or adopted).
        """
        with self._lock:
            if self.closed:
                return None
            entry = self._segments.get(key)
            if entry is not None:
                self._segments.move_to_end(key)
                self._pins[key] = self._pins.get(key, 0) + 1
            return entry

    def confirm(self, key: str, same: bool) -> None:
        """The byte comparison's verdict on a :meth:`get` entry: a
        verified hit keeps its pin, a collision gives it back."""
        with self._lock:
            if same:
                self.hits += 1
            else:
                self.collisions += 1
        if not same:
            self.unpin(key)

    def make_room(self, key: str, nbytes: int) -> Optional[Any]:
        """Evict now what adopting ``nbytes`` under ``key`` would evict.

        The same entries, in the same order, that a :meth:`put` of a
        new ``nbytes`` entry under ``key`` would pop after the fact: an
        unpinned stale entry under ``key``, then least-recently-used
        unpinned ones until the new payload fits.  Returns the segment
        of the first of them with exactly ``nbytes`` — reclaimed: the
        caller owns it now, and must fill it and :meth:`put` it or
        unlink it — and unlinks the rest.  ``None`` when no victim has
        that size, the cache is unbounded or closed, or a live run pins
        ``key`` (its :meth:`put` will refuse, and evict nothing).
        """
        with self._lock:
            if (
                self.budget_bytes is None
                or self.closed
                or self._pins.get(key, 0) > 0
            ):
                return None
            victims = [self._drop_locked(key)] if key in self._segments else []
            victims += self._evict_locked(room=nbytes)
            doomed, reclaimed = self._retire_locked(victims, reclaim=nbytes)
        self._unlink_all(doomed)
        return reclaimed

    def put(self, key: str, segment, nbytes: int) -> bool:
        """Adopt a freshly laid-out segment under ``key``.

        On ``True`` the cache now owns the segment (and will unlink it
        at :meth:`close` or on eviction) and the entry is pinned for
        the caller exactly as a verified hit would be; an unpinned entry
        already under ``key`` (a collision's stale bytes) is evicted for
        it.  On ``False`` (cache closed, or a live run pins the entry
        under ``key``: a collision, or the same bytes raced in from
        another thread) ownership stays with the caller.  Adoptions
        past the byte budget evict least-recently-used unpinned entries.
        """
        with self._lock:
            if self.closed or self._pins.get(key, 0) > 0:
                return False
            stale = key in self._segments
            victims = [self._drop_locked(key)] if stale else []
            self.misses += 1
            self._segments[key] = (segment, nbytes)
            self._pins[key] = 1
            self.total_bytes += nbytes
            victims += self._evict_locked()
            doomed, _ = self._retire_locked(victims)
        self._unlink_all(doomed)
        return True

    def unpin(self, key: str) -> None:
        """Release one :meth:`get`/:meth:`put` pin; idempotent past 0.

        The entry stays cached (that is the point — the next run's hit)
        but becomes evictable once its pin count reaches zero.
        """
        doomed: List[Any] = []
        with self._lock:
            count = self._pins.get(key, 0)
            if count <= 1:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count - 1
            if not self.closed:
                doomed, _ = self._retire_locked(self._evict_locked())
        self._unlink_all(doomed)

    def _evict_locked(self, room: int = 0) -> List[Tuple[str, Any, int]]:
        """Pop LRU unpinned entries until ``room`` more bytes fit the
        budget (lock held).

        Pinned entries are skipped: a fully-pinned cache may temporarily
        exceed the budget rather than unlink a segment a live run still
        attaches by name.
        """
        budget = self.budget_bytes
        if budget is None or self.total_bytes + room <= budget:
            return []
        victims: List[Tuple[str, Any, int]] = []
        for key in list(self._segments):
            if self.total_bytes + room <= budget:
                break
            if self._pins.get(key, 0) == 0:
                victims.append(self._drop_locked(key))
        return victims

    def _drop_locked(self, key: str) -> Tuple[str, Any, int]:
        """Pop one unpinned entry as ``(key, segment, nbytes)`` (lock
        held)."""
        segment, nbytes = self._segments.pop(key)
        self.total_bytes -= nbytes
        return (key, segment, nbytes)

    def _retire_locked(
        self, victims: List[Tuple[str, Any, int]], reclaim: int = -1
    ) -> Tuple[List[Any], Any]:
        """Count and log popped entries as evicted, in order (lock held).

        Returns the segments for the caller to unlink *outside* the
        lock, and the first victim's segment of exactly ``reclaim``
        bytes (or ``None``), which is reclaimed instead.
        """
        doomed: List[Any] = []
        reclaimed = None
        for key, segment, nbytes in victims:
            mine = reclaimed is None and nbytes == reclaim
            if mine:
                reclaimed = segment
                self.reclaims += 1
            else:
                doomed.append(segment)
            self.evictions += 1
            self.evicted_bytes += nbytes
            self._evicted_log.append((key, nbytes, segment.name, mine))
        return doomed, reclaimed

    @staticmethod
    def _unlink_all(segments: List[Any]) -> None:
        for segment in segments:
            _discard(segment)

    def take_evicted(self) -> List[Tuple[str, int, str, bool]]:
        """Drain the ``(probe key, nbytes, segment name, reclaimed)``
        eviction log (for tracing)."""
        with self._lock:
            log, self._evicted_log = self._evicted_log, []
            return log

    def stats(self) -> Dict[str, int]:
        """Counters for status surfaces (serve ``status``, agent logs)."""
        with self._lock:
            return {
                "segments": len(self._segments),
                "bytes": self.total_bytes,
                "budget_bytes": self.budget_bytes or 0,
                "hits": self.hits,
                "misses": self.misses,
                "collisions": self.collisions,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "reclaims": self.reclaims,
            }

    def close(self) -> None:
        """Unlink every cached segment.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            segments = [segment for segment, _ in self._segments.values()]
            self._segments = OrderedDict()
            self._pins = {}
            self.total_bytes = 0
        self._unlink_all(segments)


class ShmDataPlane:
    """The coordinator's ledger of every segment it created.

    Owns creation and unlinking of its per-run segments; :meth:`close`
    is idempotent and safe on every exit path (teardown, errors,
    simulated coordinator kills).  With a :class:`SegmentCache` (warm
    resident-pool runs), payload segments are borrowed from — or laid
    out once and adopted by — the cache instead, surviving this run for
    the next one; only result segments stay run-owned.
    """

    def __init__(self, cache: Optional[SegmentCache] = None) -> None:
        self._descriptors: Dict[int, ShmOpDescriptor] = {}
        self._segments: List[Any] = []
        self._result_views: Dict[int, Any] = {}
        self._cache = cache
        #: Cache probe keys this plane pinned (verified hits and
        #: adopted misses); unpinned at :meth:`close` so the entries
        #: become evictable once no live run can attach them by name.
        self._cache_keys: List[str] = []
        #: Payload bytes laid out, across ops (shipped once,
        #: however many workers attach).
        self.payload_bytes = 0
        #: Payload bytes served from the segment cache instead of being
        #: laid out again (zero without a cache or on first runs).
        self.reused_bytes = 0
        #: Total segment bytes (payloads + result buffers).
        self.shm_bytes = 0
        self.closed = False

    def __len__(self) -> int:
        return len(self._descriptors)

    def _new_segment(self, suffix: str, nbytes: int):
        for _ in range(8):
            name = f"{SEGMENT_PREFIX}_{secrets.token_hex(4)}_{suffix}"
            try:
                return _shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes
                )
            except FileExistsError:  # pragma: no cover - 1-in-2^32 race
                continue
        raise OSError("could not allocate a unique shared-memory name")

    def add_op(self, op_index: int, mode: str, payload) -> ShmOpDescriptor:
        """Lay out one op: copy ``payload`` in (an ndarray or a
        :class:`RowLayout`, as :func:`plan_payloads` planned it), zero the
        results.

        Cache-aware: under a :class:`SegmentCache`, a payload segment
        that passes its identity contract (probe key, then this
        method's byte-for-byte comparison under the pin) is reused
        as-is — no creation, no copy — and counted in ``reused_bytes``;
        a miss is laid out — into the segment it evicts, if one of the
        same size is reclaimed (:meth:`SegmentCache.make_room`), else a
        fresh one — and adopted by the cache for the next run.  On
        failure (``OSError`` from a full ``/dev/shm``) nothing it
        created, reclaimed or pinned is left behind.
        """
        if self.closed:
            raise RuntimeError("data plane already closed")
        size = payload.shape[0]
        nbytes = int(payload.nbytes)
        cache = self._cache
        key = cached = None
        if cache is not None:
            key = cache.fingerprint(mode, payload)
            cached = cache.get(key)
        if cached is not None:
            same = cached[1] == nbytes and _same_bytes(cached[0], payload)
            cache.confirm(key, same)
            if not same:
                cached = None
        with contextlib.ExitStack() as undo:  # unwound only on failure
            if cached is None:
                payload_seg = cache.make_room(key, nbytes) if cache else None
                if payload_seg is None:
                    payload_seg = self._new_segment(f"{op_index}p", nbytes)
                undo.callback(_discard, payload_seg)
                _fill(payload_seg, payload)
            else:
                payload_seg = cached[0]
                undo.callback(cache.unpin, key)
            result_seg = self._new_segment(f"{op_index}r", size * 8)
            undo.callback(_discard, result_seg)
            # Written, not assumed: the pages exist before a worker's store.
            _fill(result_seg, _np.zeros(size))
            undo.pop_all()
        self._segments.append(result_seg)
        if cached is not None:
            self._cache_keys.append(key)
            self.reused_bytes += nbytes
        else:
            self.payload_bytes += nbytes
            if key is not None and cache.put(key, payload_seg, nbytes):
                # The cache owns it now; it outlives this run (pinned
                # until this plane closes, then LRU-evictable).
                self._cache_keys.append(key)
            else:
                self._segments.append(payload_seg)
        self._result_views[op_index] = _np.ndarray(
            (size,), dtype=_np.float64, buffer=result_seg.buf
        )
        descriptor = ShmOpDescriptor(
            op_index=op_index,
            mode=mode,
            payload_name=payload_seg.name,
            payload_shape=tuple(payload.shape),
            payload_dtype=payload.dtype.str,
            result_name=result_seg.name,
            size=size,
        )
        self._descriptors[op_index] = descriptor
        self.shm_bytes += nbytes + size * 8
        return descriptor

    def descriptor(self, op_index: int) -> ShmOpDescriptor:
        return self._descriptors[op_index]

    def has_op(self, op_index: int) -> bool:
        return op_index in self._descriptors

    def result_value(self, op_index: int, index: int) -> float:
        return float(self._result_views[op_index][index])

    def close(self, unlink: bool = True) -> None:
        """Detach and (by default) unlink every segment.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        # numpy views hold exported buffers; drop them before close()
        # or SharedMemory raises BufferError.
        self._result_views.clear()
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
            if unlink:
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._segments = []
        if self._cache is not None:
            for key in self._cache_keys:
                self._cache.unpin(key)
            self._cache_keys = []


def place(
    plane: ShmDataPlane, payloads: Sequence[Any], op_index: int
) -> Tuple[Optional[ShmOpDescriptor], int]:
    """Where do these payloads live?  The one shm-or-pickle decision.

    Payloads go to shared memory — laid out in ``plane`` as op
    ``op_index`` — when they plan (:func:`plan_payloads`), the layout
    reaches :data:`AUTO_MIN_BYTES` and ``/dev/shm`` has room.  Returns
    the descriptor workers attach by, or ``None`` for the pickle plane:
    fallback is the contract, never an error, and a failed layout leaves
    nothing behind.  Beside it, the payload bytes: the plan's, equal to
    :func:`estimate_payload_nbytes` of a list that plans, which is
    walked only when none was made.
    """
    planned = plan_payloads(payloads) if shm_available() else None
    if planned is None:
        return None, estimate_payload_nbytes(payloads)
    mode, layout = planned
    if layout.nbytes < AUTO_MIN_BYTES:
        return None, layout.nbytes
    try:
        return plane.add_op(op_index, mode, layout), layout.nbytes
    except OSError:
        return None, layout.nbytes  # /dev/shm full or absent


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class WorkerAttachment:
    """One worker's zero-copy view of one op's segments."""

    def __init__(self, descriptor: ShmOpDescriptor):
        self._payload_seg = _attach_segment(descriptor.payload_name)
        try:
            self._result_seg = _attach_segment(descriptor.result_name)
        except BaseException:
            self._payload_seg.close()
            raise
        payloads = _np.ndarray(
            descriptor.payload_shape,
            dtype=_np.dtype(descriptor.payload_dtype),
            buffer=self._payload_seg.buf,
        )
        # Payloads are inputs; a kernel scribbling on them would race
        # every other worker's reads.
        payloads.flags.writeable = False
        self.result = _np.ndarray(
            (descriptor.size,), dtype=_np.float64, buffer=self._result_seg.buf
        )
        self.nbytes = descriptor.nbytes
        self.get_payload: Callable[[int], Any]
        if descriptor.mode == "array":
            self.get_payload = payloads.__getitem__
        elif descriptor.mode == "scalar":
            self.get_payload = lambda index: payloads[index].item()
        else:  # "tuple"
            self.get_payload = lambda index: tuple(payloads[index].tolist())
        self._payloads = payloads

    def batch_views(self, indices: Sequence[int]):
        """Chunk-shaped views for one batched ``Kernel.batch_fn`` call.

        Returns ``(payloads, out, writeback, zero_copy)``.  For a
        contiguous ascending chunk — the common TAPER case —
        ``payloads`` and ``out`` are zero-copy slices of the shm
        segments, so the batch call reads payloads and lands results in
        place without a single copy (``writeback`` is ``None``).  A
        gapped chunk (retry/speculation re-dispatch with completed tasks
        filtered out) is gathered into fresh arrays; call ``writeback()``
        after the batch call to scatter ``out`` into the shared result
        buffer.
        """
        span = contiguous_span(indices)
        if span is not None:
            lo, hi = span
            return self._payloads[lo:hi], self.result[lo:hi], None, True
        index_array = _np.asarray(indices, dtype=_np.intp)
        payloads = self._payloads[index_array]
        payloads.flags.writeable = False
        out = _np.zeros(len(indices), dtype=_np.float64)
        result = self.result

        def writeback() -> None:
            result[index_array] = out

        return payloads, out, writeback, False

    def close(self) -> None:
        """Detach (never unlink — segments are the coordinator's)."""
        self._payloads = None
        self.result = None
        for segment in (self._payload_seg, self._result_seg):
            try:
                segment.close()
            except BufferError:  # pragma: no cover
                pass


def ensure_tracker_running() -> None:
    """Spawn the stdlib ``resource_tracker`` *before* workers fork.

    Every op key is laid out at its first dispatch, after the pool is
    up.  A fork-started worker attaching a segment with no tracker
    running would lazily spawn its own private tracker, which at worker
    exit mistakes the (already coordinator-unlinked) segments for leaks
    and warns.  Starting the tracker up front means every child inherits
    the coordinator's tracker fd, keeping registration a shared,
    idempotent set-add that the coordinator's ``unlink()`` clears.
    """
    if not shm_available():
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - exotic platforms
        pass


def _attach_segment(name: str):
    # Attaching re-registers the name with the resource_tracker (Python
    # <= 3.12 has no track=False).  That is harmless here: workers
    # inherit the coordinator's tracker process under both fork and
    # spawn, so the registration is an idempotent set-add and the
    # coordinator's unlink() clears the single shared entry.  Do NOT
    # unregister from the worker — that would steal the coordinator's
    # entry and make its unlink complain about an unknown name.
    return _shared_memory.SharedMemory(name=name)


def attach_op(descriptor: ShmOpDescriptor) -> WorkerAttachment:
    """Worker-side entry: attach both of an op's segments zero-copy."""
    return WorkerAttachment(descriptor)
