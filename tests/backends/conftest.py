"""Backend-suite fixtures: a hard wall-clock guard for mp tests.

The mp backend has its own watchdog (``RunConfig.mp_timeout``), but a
bug in queue handling could still hang the parent before the watchdog
engages; the alarm makes every test in this directory fail loudly
instead of wedging CI.
"""

import signal

import pytest

# Registers the simulation harness's long profile before the hypothesis
# plugin reads ``--hypothesis-profile`` at configure time.
from . import test_dst  # noqa: F401

HARD_LIMIT_SECONDS = 120


@pytest.fixture(autouse=True)
def wallclock_guard():
    if not hasattr(signal, "SIGALRM"):  # non-POSIX: rely on mp_timeout
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"backend test exceeded {HARD_LIMIT_SECONDS}s wall clock"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_LIMIT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
