"""What the host tells the benchmark: the environment stamp on every
record, process trees and peak memory from ``/proc``, and the
``/dev/shm`` scan behind the leak check."""

from __future__ import annotations

import contextlib
import datetime
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Set

SHM_DIR = "/dev/shm"


class HygieneError(RuntimeError):
    """The run left a process, a shm segment or a temp dir behind."""


def _git(root: str, *args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", root, *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fs_type(path: str) -> str:
    """Filesystem type of the mount that holds ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def stamp(root: str, state_root: str, seed: int) -> Dict[str, object]:
    import numpy

    from repro.runtime.backends.mp import default_start_method

    commit = _git(root, "rev-parse", "HEAD")
    return {
        # A checkout without git history (the driver's) has no commit.
        "commit": commit or "unknown",
        "dirty": bool(_git(root, "status", "--porcelain")) if commit else None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": default_start_method(),
        "state_dir_fs": fs_type(state_root),
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "argv": sys.argv[1:],
    }


def _status_field(pid: int, field: str) -> str:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def descendants(root_pid: int) -> List[int]:
    """Every live process below ``root_pid`` (not ``root_pid`` itself)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _status_field(int(entry), "PPid")
            if parent:
                children.setdefault(int(parent), []).append(int(entry))
    found, frontier = [], [root_pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mib(root_pid: int) -> float:
    """Sum of ``VmHWM`` over ``root_pid`` and its descendants."""
    total_kib = 0
    for pid in [root_pid] + descendants(root_pid):
        field = _status_field(pid, "VmHWM")
        if field:
            total_kib += int(field.split()[0])
    return total_kib / 1024.0


def cpu_seconds(pids: Sequence[int]) -> float:
    """User plus system time ``pids`` have used so far, from
    ``/proc/<pid>/stat`` (a pid that has gone counts nothing)."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def shm_names() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def alive(pid: int) -> bool:
    """Still running; a zombie has ended and only waits to be reaped."""
    state = _status_field(pid, "State")
    return bool(state) and not state.startswith("Z")


def wait_gone(pids: Sequence[int], timeout: float) -> List[int]:
    """Wait until every one of ``pids`` has ended; returns those that
    have not after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.01)
        left = [pid for pid in left if alive(pid)]
    return left


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            raw = handle.read()
    except OSError:
        return ""
    return raw.replace(b"\0", b" ").decode("utf-8", "replace").strip()


def _live_children() -> Dict[int, str]:
    """Running descendants of this process and their command lines,
    the stdlib resource tracker apart: :func:`end_children` ends it."""
    return {
        pid: cmdline
        for pid in descendants(os.getpid())
        for cmdline in [_cmdline(pid)]
        if alive(pid) and "resource_tracker" not in cmdline
    }


def stray_children() -> List[str]:
    """Descendants of this process that should be gone by now."""
    return [f"{pid}: {cmdline}" for pid, cmdline in _live_children().items()]


def end_children(grace: float = 5.0) -> None:
    """Every path out of the benchmark ends here: nothing this process
    started is running once it returns.

    Descendants get ``grace`` seconds to finish what their owners asked
    of them, then SIGKILL.  Last goes the multiprocessing resource
    tracker, which would otherwise outlive the interpreter by some
    milliseconds: closing its pipe ends it, and ``_stop`` waits for it.
    """
    if wait_gone(list(_live_children()), grace):
        for pid in _live_children():
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        wait_gone(list(_live_children()), grace)
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    multiprocessing.active_children()  # reaps what has ended
