"""Orphan checks shared by the tests that drive ``repro`` subprocesses.

Start the subprocess with ``start_new_session=True`` so it leads its own
process group; every worker it forks or spawns inherits that group, so
"no orphan" is "the group is empty once the leader has exited".  A leaked
shm segment is a ``repro_`` name in ``/dev/shm`` that was not there
before: compare two :func:`repro_segments` snapshots, never one against
empty (other processes' stale segments are not this test's leak).
"""

import os
import time


def group_pids(pgid):
    """Live (non-zombie) pids in process group ``pgid``, via ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we were looking
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def wait_group_gone(pgid, grace=5.0):
    """Give group ``pgid`` up to ``grace`` seconds to empty (a SIGKILLed
    worker takes a moment to leave the process table); returns the pids
    still alive after that."""
    deadline = time.monotonic() + grace
    while group_pids(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return group_pids(pgid)


def assert_group_gone(pgid):
    orphans = wait_group_gone(pgid)
    assert not orphans, f"orphans in group {pgid}: {orphans}"


def repro_segments():
    """The ``repro_*`` shm segment names that exist right now."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:  # no /dev/shm on this platform
        return set()
