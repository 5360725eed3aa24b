"""Suite-wide fixtures: a hard wall-clock guard on every test.

A bug in queue handling, routing or a drain could hang the parent
before any of the code's own timeouts engages; the alarm fails the test
instead.  It is not armed under the simulation harnesses' long profile,
whose CI step has its own bound, and where an alarm inside a simulated
kernel call would read as a kernel failure that does not replay.
"""

import signal

import pytest
from hypothesis import settings

# Registers the long profile before the hypothesis plugin reads
# ``--hypothesis-profile`` at configure time.
from .dst import LONG

HARD_LIMIT_SECONDS = 120


@pytest.fixture(autouse=True)
def wallclock_guard():
    if (not hasattr(signal, "SIGALRM")  # non-POSIX: rely on mp_timeout
            or settings.get_current_profile_name() == LONG):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(f"test exceeded {HARD_LIMIT_SECONDS}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_LIMIT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
