"""The serve wire protocol: one JSON object per line over a local socket.

Deliberately boring — newline-delimited JSON is debuggable with ``nc -U``
and needs no framing state beyond "read a line".  Requests are dicts with
an ``"op"`` key; responses are dicts with an ``"ok"`` key (``False``
carries ``"error"``).  One request/response pair per connection keeps the
server's per-connection state machine trivial.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, Optional, Tuple

#: Cap on one message line (a submit carries a target path and an
#: overrides dict, never bulk data — payloads stay server-side).
#: Documented in DESIGN.md §8; the server answers an over-long line with
#: a structured ``code="line_too_long"`` error rather than hanging up.
MAX_LINE = 1 << 20

#: Line cap for the persistent `dist` streams.  Headers are still small
#: JSON, but op descriptors (kernel source metadata, shm layouts) are
#: roomier than serve control messages; bulk data rides in blobs, not in
#: the header line.
STREAM_MAX_LINE = 8 << 20

#: Cap on one binary blob (a pickled ``(kernel, payloads)`` tuple for
#: one op).  Generous: payload shipping is one-time per (host, op).
MAX_BLOB = 1 << 30

#: How much of an over-long line the receiver is willing to discard
#: while looking for its terminating newline, so the sender gets the
#: structured error reply instead of a broken pipe.  Beyond this the
#: peer is not speaking the protocol at all; stop reading.
DRAIN_LIMIT = 8 * MAX_LINE


class ProtocolError(Exception):
    """Malformed frame on the wire (not JSON, too long, truncated).

    ``code`` is the stable machine-readable discriminator clients can
    branch on (the human-readable message may change):

    * ``"line_too_long"`` — the line exceeded :data:`MAX_LINE`;
    * ``"truncated"`` — the connection closed mid-line;
    * ``"bad_json"`` — the line was not one JSON object.
    """

    def __init__(self, message: str, code: str = "bad_json"):
        super().__init__(message)
        self.code = code


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as its wire line, newline included."""
    data = json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"
    if len(data) > MAX_LINE:
        raise ProtocolError(
            f"message too large ({len(data)} bytes, cap {MAX_LINE})",
            code="line_too_long",
        )
    return data


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    data = encode_message(message)
    sock.sendall(data)


def _drain_line(sock: socket.socket) -> None:
    """Discard the rest of an over-long line (bounded by DRAIN_LIMIT).

    Reading to the newline lets the sender finish its ``sendall`` and
    collect the structured error reply; closing with the line half-read
    would instead kill the sender with a broken pipe mid-send.
    """
    discarded = 0
    while discarded < DRAIN_LIMIT:
        data = sock.recv(4096)
        if not data or b"\n" in data:
            return
        discarded += len(data)


def _decode_object(line: bytes) -> Dict[str, Any]:
    """One frame's JSON object, or ``ProtocolError("bad_json")``.

    Whatever the peer sent: invalid UTF-8 or JSON, an integer past the
    interpreter's digit limit (``ValueError``) and nesting past the
    recursion limit (``RecursionError``) are all one malformed frame,
    never an exception that kills the reading thread.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"bad JSON frame: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def _take_line(
    buffer: bytearray, max_line: int, eof: bool = False
) -> Optional[bytes]:
    """Pop the first whole line off ``buffer`` (its newline dropped).

    ``None`` while no line is complete, and at ``eof`` with nothing
    buffered (a clean end between lines).  A line past ``max_line``
    bytes, whole or not, is ``line_too_long``; a partial line at
    ``eof`` is ``truncated``.  The one line parser: blocking readers
    (:func:`recv_message`, :class:`MessageStream`) and the serve
    daemon's non-blocking front end (:func:`take_message`) all feed it.
    """
    newline = buffer.find(b"\n")
    if newline > max_line or (newline < 0 and len(buffer) > max_line):
        raise ProtocolError(
            f"line exceeds {max_line} bytes", code="line_too_long"
        )
    if newline >= 0:
        line = bytes(buffer[:newline])
        del buffer[: newline + 1]
        return line
    if eof and buffer:
        raise ProtocolError(
            "connection closed mid-line", code="truncated"
        )
    return None


def _fill(sock: socket.socket, buffer: bytearray) -> bool:
    """Pull more bytes off the socket into ``buffer``; False on EOF."""
    data = sock.recv(65536)
    buffer.extend(data)
    return bool(data)


def _read_line(
    sock: socket.socket, buffer: bytearray, max_line: int
) -> Optional[bytes]:
    """The next line off ``sock`` through ``buffer`` (bytes read past it
    stay there); ``None`` on a clean EOF between lines."""
    eof = False
    while True:
        line = _take_line(buffer, max_line, eof)
        if line is not None or eof:
            return line
        eof = not _fill(sock, buffer)


def take_message(
    buffer: bytearray, eof: bool = False
) -> Optional[Dict[str, Any]]:
    """The first whole request in ``buffer``, decoded and popped; the
    rest is :func:`_take_line`'s contract, at :data:`MAX_LINE`."""
    line = _take_line(buffer, MAX_LINE, eof)
    return None if line is None else _decode_object(line)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one newline-terminated JSON object; ``None`` on clean EOF.

    A connection carries one request or one reply, so whatever the
    buffered read took past the newline is dropped with the buffer.
    """
    buffer = bytearray()
    try:
        line = _read_line(sock, buffer, MAX_LINE)
    except ProtocolError as error:
        if error.code == "line_too_long" and b"\n" not in buffer:
            _drain_line(sock)
        raise
    if line is None:
        return None
    return _decode_object(line)


class MessageStream:
    """A persistent framed message stream for the `dist` backend.

    A serve connection carries one request and one reply; a dist
    coordinator/host-agent link instead carries thousands of small
    frames, so this wrapper adds:

    * **A buffer that outlives the line.**  ``recv`` keeps what a 64 KiB
      read took past one frame for the next.
    * **Binary blob framing.**  A frame is one JSON header line,
      optionally followed by ``header["blob"]`` raw bytes (a pickled
      payload).  JSON never has to base64 bulk data.
    * **Thread-safe sends.**  A host agent's report pump and its
      connection thread both write to one link; a lock keeps frames
      atomic.

    Frame grammar on the wire::

        {"op": "load", "key": "A", "blob": 81920}\\n<81920 raw bytes>
        {"op": "ping"}\\n

    ``recv`` returns ``(header, blob)`` where ``blob`` is ``None`` when
    the header carried no ``"blob"`` count, or ``None`` (the whole
    return) on clean EOF between frames.
    """

    def __init__(
        self, sock: socket.socket, max_line: int = STREAM_MAX_LINE
    ):
        self._sock = sock
        self._max_line = max_line
        self._buffer = bytearray()
        self._send_lock = threading.Lock()
        self._closed = False

    def send(
        self, message: Dict[str, Any], blob: Optional[bytes] = None
    ) -> None:
        header = dict(message)
        if blob is not None:
            if len(blob) > MAX_BLOB:
                raise ProtocolError(
                    f"blob too large ({len(blob)} bytes, cap {MAX_BLOB})",
                    code="line_too_long",
                )
            header["blob"] = len(blob)
        data = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
        if len(data) > self._max_line:
            raise ProtocolError(
                f"header line too large ({len(data)} bytes, "
                f"cap {self._max_line})",
                code="line_too_long",
            )
        with self._send_lock:
            self._sock.sendall(data)
            if blob is not None:
                self._sock.sendall(blob)

    def _read_exact(self, nbytes: int) -> bytes:
        while len(self._buffer) < nbytes:
            if not _fill(self._sock, self._buffer):
                raise ProtocolError(
                    "connection closed mid-blob", code="truncated"
                )
        blob = bytes(self._buffer[:nbytes])
        del self._buffer[:nbytes]
        return blob

    def recv(
        self,
    ) -> Optional[Tuple[Dict[str, Any], Optional[bytes]]]:
        """Read one frame; ``None`` on clean EOF between frames."""
        line = _read_line(self._sock, self._buffer, self._max_line)
        if line is None:
            return None
        header = _decode_object(line)
        blob: Optional[bytes] = None
        nbytes = header.pop("blob", None)
        if nbytes is not None:
            if (
                not isinstance(nbytes, int)
                or nbytes < 0
                or nbytes > MAX_BLOB
            ):
                raise ProtocolError(
                    f"bad blob length {nbytes!r}", code="line_too_long"
                )
            blob = self._read_exact(nbytes)
        return header, blob

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
