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


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    data = json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"
    if len(data) > MAX_LINE:
        raise ProtocolError(
            f"message too large ({len(data)} bytes, cap {MAX_LINE})",
            code="line_too_long",
        )
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


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one newline-terminated JSON object; ``None`` on clean EOF."""
    chunks = []
    total = 0
    while True:
        byte = sock.recv(1)
        if not byte:
            if not chunks:
                return None
            raise ProtocolError(
                "connection closed mid-message", code="truncated"
            )
        if byte == b"\n":
            break
        chunks.append(byte)
        total += 1
        if total > MAX_LINE:
            _drain_line(sock)
            raise ProtocolError(
                f"message line exceeds MAX_LINE ({MAX_LINE} bytes)",
                code="line_too_long",
            )
    return _decode_object(b"".join(chunks))


class MessageStream:
    """A persistent framed message stream for the `dist` backend.

    The one-shot serve protocol reads a byte at a time because each
    connection carries a single request; a dist coordinator/host-agent
    link instead carries thousands of small frames, so this wrapper adds:

    * **Buffered reads.**  ``recv`` pulls 64 KiB at a time and splits
      lines out of an internal buffer.
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

    def _fill(self) -> bool:
        """Pull more bytes off the socket; False on EOF."""
        data = self._sock.recv(65536)
        if not data:
            return False
        self._buffer.extend(data)
        return True

    def _read_line(self) -> Optional[bytes]:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                if newline > self._max_line:
                    raise ProtocolError(
                        f"header line exceeds {self._max_line} bytes",
                        code="line_too_long",
                    )
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line
            if len(self._buffer) > self._max_line:
                raise ProtocolError(
                    f"header line exceeds {self._max_line} bytes",
                    code="line_too_long",
                )
            if not self._fill():
                if self._buffer:
                    raise ProtocolError(
                        "connection closed mid-header", code="truncated"
                    )
                return None

    def _read_exact(self, nbytes: int) -> bytes:
        while len(self._buffer) < nbytes:
            if not self._fill():
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
        line = self._read_line()
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
