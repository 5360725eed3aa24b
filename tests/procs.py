"""The one way tests run ``repro`` in processes of its own.

:func:`spawn` starts ``python ARGV`` from the repo root with
``PYTHONPATH=src``, as the leader of a fresh process group: every worker
it forks or spawns inherits that group, so "no orphan" is "the group is
empty once the leader has exited".  :func:`run` waits for it (killing the
group on a timeout) and asserts the group is gone.  A leaked shm segment
is a ``repro_`` name in ``/dev/shm`` that was not there before: compare
two :func:`repro_segments` snapshots, never one against empty (other
processes' stale segments are not this test's leak).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def spawn(*argv, **popen_kwargs):
    """``python ARGV`` (``-m repro ...``, ``-c SCRIPT ...``) in its own
    process group, text pipes for stdout and stderr unless overridden."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    popen_kwargs.setdefault("stdout", subprocess.PIPE)
    popen_kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.Popen(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env=env,
        text=True,
        start_new_session=True,
        **popen_kwargs,
    )


def run(*argv, timeout=90):
    """:func:`spawn` ``argv`` and wait; returns ``(status, stdout,
    stderr)`` once the whole process group is gone."""
    proc = spawn(*argv)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert_group_gone(proc.pid)
    return proc.returncode, stdout, stderr


def repro(*args, timeout=90):
    """``python -m repro ARGS`` through :func:`run`."""
    return run("-m", "repro", *args, timeout=timeout)


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
