#!/usr/bin/env python
"""Run a command and fail if it leaves a process or a shm segment behind.

CI wraps every CLI run smoke in this::

    python scripts/no_orphans.py -- python -m repro run fig1 --backend mp

The command runs as the leader of a fresh process group, so every worker
it forks or spawns is a member; once it exits, any live member is an
orphan.  ``/dev/shm`` is listed before and after for ``repro_`` segments
the run created and did not unlink.  The wrapper exits with the
command's own status (so ``coordkill`` smokes still see their 23) unless
the check fails, in which case it prints what leaked and exits 70.
SIGTERM/SIGINT are forwarded to the command, so a backgrounded daemon
can be stopped through the wrapper.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.procs import repro_segments, wait_group_gone  # noqa: E402

LEAK_EXIT = 70


def main(argv: list) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    before = repro_segments()
    child = subprocess.Popen(argv, start_new_session=True)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda s, _frame: child.send_signal(s))
    status = child.wait()
    orphans = wait_group_gone(child.pid)
    leaked = sorted(repro_segments() - before)
    if orphans or leaked:
        print(
            f"no_orphans: {' '.join(argv)!r} left processes {orphans} "
            f"and /dev/shm segments {leaked}",
            file=sys.stderr,
        )
        return LEAK_EXIT
    return status if status >= 0 else 128 - status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
