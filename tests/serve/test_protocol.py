"""Wire-protocol limits: the 1 MiB line cap and its structured error,
and hostile bytes (both codecs fuzzed: a frame, ``None`` or a
``ProtocolError``, with a bounded buffer).

The serve protocol is newline-delimited JSON with a hard per-line cap
(:data:`repro.serve.protocol.MAX_LINE`, documented in DESIGN.md §8).  An
over-long line must produce a *structured* ``code="line_too_long"``
reply — the sender gets told what it did wrong and what the cap is —
rather than a dropped connection, and the daemon must keep serving
afterwards.
"""

import socket
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_LINE,
    ProtocolError,
    recv_message,
    send_message,
)


# -- recv_message framing errors (socketpair, small patched cap) -------------


@pytest.fixture
def small_cap(monkeypatch):
    from repro.serve import server as server_module

    monkeypatch.setattr(protocol, "MAX_LINE", 4096)
    monkeypatch.setattr(protocol, "DRAIN_LIMIT", 8 * 4096)
    # server.py holds its own imported binding for the reply field.
    monkeypatch.setattr(server_module, "MAX_LINE", 4096)


def _feed(data: bytes):
    """A reader socket whose peer is fed ``data`` from a thread (the
    payload can exceed the socketpair buffer)."""
    reader, writer = socket.socketpair()

    def pump():
        try:
            writer.sendall(data)
        finally:
            writer.close()

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    return reader, thread


def test_recv_rejects_oversized_line_with_code(small_cap):
    reader, thread = _feed(b"x" * (3 * 4096) + b"\n")
    with pytest.raises(ProtocolError) as excinfo:
        recv_message(reader)
    assert excinfo.value.code == "line_too_long"
    thread.join(timeout=5)
    reader.close()


def test_recv_reports_truncation_code():
    reader, thread = _feed(b'{"op": "ping"')  # EOF before the newline
    with pytest.raises(ProtocolError) as excinfo:
        recv_message(reader)
    assert excinfo.value.code == "truncated"
    thread.join(timeout=5)
    reader.close()


def test_recv_reports_bad_json_code():
    reader, thread = _feed(b"not json\n")
    with pytest.raises(ProtocolError) as excinfo:
        recv_message(reader)
    assert excinfo.value.code == "bad_json"
    thread.join(timeout=5)
    reader.close()


def test_send_refuses_oversized_message():
    with pytest.raises(ProtocolError) as excinfo:
        send_message(None, {"blob": "x" * MAX_LINE})
    assert excinfo.value.code == "line_too_long"


# -- the daemon answers instead of hanging up --------------------------------


def test_server_replies_structured_line_too_long(
    tmp_path, small_cap, make_server
):
    server = make_server(socket_path=str(tmp_path / "serve.sock"))
    # An over-long line: the server must drain it, reply with the
    # structured error, and stay up for the next connection.
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(server.socket_path)
    client.sendall(b"x" * (3 * 4096) + b"\n")
    reply = recv_message(client)
    client.close()
    assert reply == {
        "ok": False,
        "error": reply["error"],
        "code": "line_too_long",
        "max_line": 4096,
    }
    assert "4096" in reply["error"]

    # The daemon still serves: a well-formed ping succeeds.
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(server.socket_path)
    send_message(client, {"op": "ping"})
    pong = recv_message(client)
    client.close()
    assert pong["ok"] is True


def test_recv_reads_a_request_dribbled_one_byte_a_send():
    reader, writer = socket.socketpair()
    line = b'{"job": "job-0001", "op": "wait"}\n'

    def dribble():
        for byte in line:
            writer.sendall(bytes([byte]))
        writer.close()

    thread = threading.Thread(target=dribble, daemon=True)
    thread.start()
    assert recv_message(reader) == {"job": "job-0001", "op": "wait"}
    thread.join(timeout=5)
    reader.close()


def test_server_reads_dribbled_and_refuses_truncated_requests(
    tmp_path, make_server
):
    """The daemon's front end reads through a buffer too: a request in
    1-byte sends is one request, and one cut off by EOF before its
    newline gets the ``truncated`` reply."""
    import time

    server = make_server(socket_path=str(tmp_path / "serve.sock"))
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(server.socket_path)
    for byte in b'{"op": "ping"}\n':
        client.sendall(bytes([byte]))
        time.sleep(0.001)
    pong = recv_message(client)
    client.close()
    assert pong["ok"] is True

    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(server.socket_path)
    client.sendall(b'{"op": "ping"}')
    client.shutdown(socket.SHUT_WR)
    reply = recv_message(client)
    client.close()
    assert (reply["ok"], reply["code"]) == (False, "truncated")


# -- MessageStream framing (the persistent dist-link layer) ------------------


def _stream_pair():
    left, right = socket.socketpair()
    return protocol.MessageStream(left), protocol.MessageStream(right)


def test_stream_roundtrips_header_only_frames():
    a, b = _stream_pair()
    try:
        a.send({"op": "ping"})
        a.send({"op": "run", "indices": [1, 2, 3]})
        assert b.recv() == ({"op": "ping"}, None)
        assert b.recv() == ({"op": "run", "indices": [1, 2, 3]}, None)
    finally:
        a.close()
        b.close()


def test_stream_roundtrips_binary_blobs():
    a, b = _stream_pair()
    payload = bytes(range(256)) * 512  # 128 KiB, crosses recv buffers
    try:
        a.send({"op": "load", "key": 7}, blob=payload)
        a.send({"op": "bye"})
        header, blob = b.recv()
        assert header == {"op": "load", "key": 7}  # "blob" count stripped
        assert blob == payload
        assert b.recv() == ({"op": "bye"}, None)
    finally:
        a.close()
        b.close()


def test_stream_clean_eof_between_frames_returns_none():
    a, b = _stream_pair()
    a.send({"op": "ping"})
    a.close()
    try:
        assert b.recv() == ({"op": "ping"}, None)
        assert b.recv() is None
    finally:
        b.close()


def test_stream_truncated_blob_raises():
    left, right = socket.socketpair()
    stream = protocol.MessageStream(right)
    left.sendall(b'{"blob": 100, "op": "load"}\n' + b"x" * 10)
    left.close()
    with pytest.raises(ProtocolError) as excinfo:
        stream.recv()
    assert excinfo.value.code == "truncated"
    stream.close()


def test_stream_oversized_header_raises():
    left, right = socket.socketpair()
    stream = protocol.MessageStream(right, max_line=64)
    left.sendall(b"x" * 200 + b"\n")
    with pytest.raises(ProtocolError) as excinfo:
        stream.recv()
    assert excinfo.value.code == "line_too_long"
    left.close()
    stream.close()


def test_stream_bad_blob_length_rejected():
    left, right = socket.socketpair()
    stream = protocol.MessageStream(right)
    left.sendall(b'{"blob": -5, "op": "load"}\n')
    with pytest.raises(ProtocolError):
        stream.recv()
    left.close()
    stream.close()


# -- hostile bytes: one malformed frame, never a dead reader -----------------

DEEP = b"[" * 200_000 + b"\n"  # nesting past the interpreter's recursion limit


def test_recv_maps_deep_nesting_to_bad_json():
    reader, thread = _feed(DEEP)
    with pytest.raises(ProtocolError) as excinfo:
        recv_message(reader)
    assert excinfo.value.code == "bad_json"
    thread.join(timeout=5)
    reader.close()


def test_stream_maps_deep_nesting_to_bad_json():
    left, right = socket.socketpair()
    stream = protocol.MessageStream(right)
    thread = threading.Thread(target=left.sendall, args=(DEEP,), daemon=True)
    thread.start()
    with pytest.raises(ProtocolError) as excinfo:
        stream.recv()
    assert excinfo.value.code == "bad_json"
    thread.join(timeout=5)
    left.close()
    stream.close()


def test_server_replies_bad_json_to_deep_nesting(tmp_path, make_server):
    server = make_server(socket_path=str(tmp_path / "serve.sock"))
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(server.socket_path)
    client.sendall(DEEP)
    reply = recv_message(client)
    client.close()
    assert (reply["ok"], reply["code"]) == (False, "bad_json")


class _Wire:
    """A socket stand-in handing ``data`` out at most ``chunk`` bytes a
    read, and checking the reader's buffer bound at every read."""

    def __init__(self, data, chunk, check=lambda: None):
        self.data, self.chunk, self.check = data, chunk, check
        self.at = 0

    def recv(self, nbytes):
        self.check()
        piece = self.data[self.at : self.at + min(nbytes, self.chunk)]
        self.at += len(piece)
        return piece


FUZZ_LINE, FUZZ_BLOB = 8192, 512

FRAGMENTS = [
    b"{", b"}", b"[", b"]", b",", b":", b" ", b"\n", b'"', b"\\u", b"\xff",
    b'"op"', b'"blob"', b"-5", b"1e999", b"NaN", b"true",
    b'{"op": "ping"}\n',
    b'{"blob": 3, "op": "load"}\n',
    b'{"blob": 100000}\n',
    b"[" * 3000 + b"\n",  # nesting past the recursion limit, in the cap
    b"9" * 4400 + b"\n",  # past the int digit limit, in the cap
    b"x" * (FUZZ_LINE + 10),  # past the line cap
]

wire_bytes = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.binary(max_size=64)), max_size=24
).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(data=wire_bytes, chunk=st.integers(1, 2 * FUZZ_LINE))
def test_serve_codec_fuzz_yields_frames_or_protocol_errors(data, chunk):
    wire = _Wire(data, chunk)
    with mock.patch.object(protocol, "MAX_LINE", FUZZ_LINE), mock.patch.object(
        protocol, "DRAIN_LIMIT", 8 * FUZZ_LINE
    ):
        while True:
            try:
                message = recv_message(wire)
            except ProtocolError:
                return
            if message is None:
                return
            assert isinstance(message, dict)


@settings(max_examples=150, deadline=None)
@given(data=wire_bytes, chunk=st.integers(1, 2 * FUZZ_LINE))
def test_stream_codec_fuzz_yields_frames_or_protocol_errors(data, chunk):
    bound = FUZZ_LINE + 1 + FUZZ_BLOB

    def check():
        assert len(stream._buffer) <= bound

    stream = protocol.MessageStream(_Wire(data, chunk, check), FUZZ_LINE)
    with mock.patch.object(protocol, "MAX_BLOB", FUZZ_BLOB):
        while True:
            try:
                frame = stream.recv()
            except ProtocolError:
                return
            if frame is None:
                return
            header, blob = frame
            assert isinstance(header, dict)
            assert blob is None or len(blob) <= FUZZ_BLOB
