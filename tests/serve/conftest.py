"""Serve-suite fixtures: daemons drained at teardown, and a hard
wall-clock guard.

The serve daemon multiplexes real worker processes and threads; a
routing or drain bug could hang the parent past every internal timeout.
The alarm makes every test in this directory fail loudly instead of
wedging CI.
"""

import signal

import pytest

from .servers import process_server


@pytest.fixture
def make_server(tmp_path):
    """``make_server(**kwargs)``: a started daemon on two worker
    processes, its state in ``tmp_path``, drained after the test."""
    made = []

    def make(**kwargs):
        kwargs.setdefault("state_dir", str(tmp_path / "state"))
        made.append(process_server(2, **kwargs))
        return made[-1]

    yield make
    for server in made:
        server.drain("test teardown")

HARD_LIMIT_SECONDS = 120


@pytest.fixture(autouse=True)
def wallclock_guard():
    if not hasattr(signal, "SIGALRM"):  # non-POSIX: rely on mp_timeout
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"serve test exceeded {HARD_LIMIT_SECONDS}s wall clock"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_LIMIT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
