"""The resume lattice, as one property on real processes.

A point of the lattice is a target, a cost source, a data plane, a
batching mode and an interruption: ``coordkill`` at a drawn dispatch
(exit 23), or a SIGINT raised inside a real ``WorkerPool``'s k-th
``load`` (exit 130).  Every run is the ``repro`` CLI in a process group
of its own, and ``run --resume`` then finishes the job.  At every point:

* the resume exits 0 and reports the closed-form or serial-reference
  total;
* no task the journal restored shows up among the resumed run's
  ``TASK_DISPATCH`` events (its ``--trace-out``), and those events plus
  the restored tasks are every task once;
* no process and no new ``/dev/shm/repro_*`` segment outlives a run.

Tier-1 runs a fixed seed, with the declared-cost stream point pinned.
The long profile (``--hypothesis-profile resume-lattice-long``; it is
registered here, and ``conftest.py`` imports this module so the flag
finds it) draws more points and adds two fleets: a ``dist`` run of two
loopback agents resumed on one of them (the width-free fingerprint
allows it), and a serve job drained mid-flight.
"""

import functools
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.apps.streams import synthetic_total
from repro.runtime.backends.dist import HostAgent
from repro.runtime.checkpoint import CheckpointError, read_journal, restorable
from repro.runtime.config import RunConfig
from repro.runtime.faults import COORDINATOR_KILL_EXIT
from repro.serve.jobs import JobState
from repro.serve.server import JobServer

from ..procs import assert_group_gone, repro_segments

REPO_ROOT = Path(__file__).resolve().parents[2]

LONG = "resume-lattice-long"
settings.register_profile(LONG, max_examples=50, deadline=None)

#: Exit status of a run cancelled by SIGINT (``repro.__main__``).
SIGINT_EXIT = 130
STREAM_RECORDS = 20_000
TARGETS = {
    "reduction": ("reduction",),
    "fig1.f": ("examples/fig1.f",),
    "stream": (
        "stream", "--stream-records", str(STREAM_RECORDS),
        "--records-per-task", "200", "--page-records", "2000",
    ),
}

#: ``python -c`` body: the CLI, with SIGINT raised at this process from
#: inside the k-th real ``WorkerPool.load`` (k = 0: never).
CLI = """
import os, signal, sys
from repro.__main__ import main
from repro.runtime.backends.pool import WorkerPool

loads, k = [0], int(sys.argv[1])
real_load = WorkerPool.load

def load(self, *args):
    loads[0] += 1
    if loads[0] == k:
        os.kill(os.getpid(), signal.SIGINT)
    return real_load(self, *args)

WorkerPool.load = load
sys.exit(main(sys.argv[2:]))
"""

POINTS = st.fixed_dictionaries(
    {
        "target": st.sampled_from(sorted(TARGETS)),
        "cost_source": st.sampled_from(["measured", "declared"]),
        "plane": st.sampled_from(["shm", "pickle"]),
        "batching": st.sampled_from(["on", "off"]),
        # Every target runs more than 7 chunks and loads on both
        # workers at its first dispatch, so each draw interrupts.
        "interrupt": st.one_of(
            st.tuples(st.just("coordkill"), st.integers(1, 6)),
            st.tuples(st.just("sigint"), st.integers(1, 2)),
        ),
    }
)

#: A declared-cost stream used to die with ``IndexError`` on resume:
#: replay looked up restored tasks' costs before their pages came back.
DECLARED_STREAM = {
    "target": "stream",
    "cost_source": "declared",
    "plane": "shm",
    "batching": "on",
    "interrupt": ("coordkill", 5),
}


def cli(*argv, sigint_at_load=0):
    """``repro argv`` in its own process group; returns ``(status,
    stdout, stderr)`` once the whole group is gone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI, str(sigint_at_load), *argv],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert_group_gone(proc.pid)
    return proc.returncode, stdout, stderr


@functools.lru_cache(maxsize=None)
def reference_total(target):
    if target == "stream":
        return synthetic_total(STREAM_RECORDS)
    ops, _deps, _label = api.resolve_ops(
        TARGETS[target][0], RunConfig(backend="mp", processors=2)
    )
    return sum(float(op.kernel(item)) for op in ops for item in op.payloads)


def run_options(point):
    return (
        "--cost-source", point["cost_source"],
        "--data-plane", point["plane"],
        "--batching", point["batching"],
    )


def assert_resumes(scratch, ckpt, point, fleet=("--backend", "mp")):
    """Resume ``ckpt`` and check the point's totals and dispatches."""
    restored = {
        (chunk.label, task[0])
        for pages in restorable(read_journal(ckpt)).values()
        for _mark, chunks in pages
        for chunk in chunks
        for task in chunk.tasks
    }
    trace = os.path.join(scratch, "resumed.json")
    status, stdout, stderr = cli(
        "run", *fleet, "--resume", ckpt, "--data-plane", point["plane"],
        "--trace-out", trace,
    )
    assert status == 0, stderr
    assert f"value_total={reference_total(point['target']):.0f}" in stdout
    if restored:
        assert f"resumed: {len(restored)} tasks restored" in stdout
    with open(trace) as handle:
        events = json.load(handle)["traceEvents"]
    dispatched = [
        (event["args"]["op"], event["args"]["task"])
        for event in events
        if event.get("cat") == "compute" and "task" in event["args"]
    ]
    assert not restored & set(dispatched), "a journalled task ran again"
    tasks = int(stdout.split(" tasks=", 1)[1].split()[0])
    assert len(set(dispatched)) == len(dispatched) == tasks - len(restored)


def check_point(point):
    """Interrupt one ``mp`` run of ``point``, then resume it."""
    segments = repro_segments()
    kind, at = point["interrupt"]
    with tempfile.TemporaryDirectory() as scratch:
        ckpt = os.path.join(scratch, "ckpt")
        run = (
            "run", *TARGETS[point["target"]], "--backend", "mp", "-p", "2",
            *run_options(point), "--checkpoint", ckpt,
        )
        if kind == "coordkill":
            status, stdout, stderr = cli(
                *run, "--inject-fault", f"coordkill:*:{at}"
            )
            assert status == COORDINATOR_KILL_EXIT, stderr
        else:
            status, stdout, stderr = cli(*run, sigint_at_load=at)
            assert status == SIGINT_EXIT, stdout + stderr
        assert_resumes(scratch, ckpt, point)
    assert repro_segments() <= segments


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@example(point=DECLARED_STREAM)
@given(point=POINTS)
def test_resume_lattice(point):
    check_point(point)


# ---------------------------------------------------------------------------
# Long profile: more points, and the dist and serve fleets
# ---------------------------------------------------------------------------


def check_dist_point(point):
    """Kill a coordinator of two loopback agents; resume on the first."""
    segments = repro_segments()
    agents = [HostAgent(1, die_hard=False) for _ in range(2)]
    try:
        for agent in agents:
            agent.start()
            threading.Thread(target=agent.serve_forever, daemon=True).start()
        hosts = [f"127.0.0.1:{agent.port}" for agent in agents]
        with tempfile.TemporaryDirectory() as scratch:
            ckpt = os.path.join(scratch, "ckpt")
            status, _stdout, stderr = cli(
                "run", *TARGETS[point["target"]], "--backend", "dist",
                "--hosts", ",".join(hosts), *run_options(point),
                "--checkpoint", ckpt,
                "--inject-fault", f"coordkill:*:{point['interrupt'][1]}",
            )
            assert status == COORDINATOR_KILL_EXIT, stderr
            fewer = ("--backend", "dist", "--hosts", hosts[0])
            assert_resumes(scratch, ckpt, point, fewer)
    finally:
        for agent in agents:
            agent.stop()
    assert repro_segments() <= segments


def check_drained_job(point):
    """Drain a serve job behind a straggler; resume its journal."""
    segments = repro_segments()
    with tempfile.TemporaryDirectory() as scratch:
        state_dir = os.path.join(scratch, "state")
        server = JobServer(processors=2, state_dir=state_dir)
        try:
            ok, job = server.submit(
                TARGETS[point["target"]][0],
                overrides={
                    "cost_source": point["cost_source"],
                    "data_plane": point["plane"],
                    "batching": point["batching"],
                    "inject_fault": "slow:*:1:0.5",
                },
            )
            assert ok, job
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    if read_journal(job.checkpoint_dir).records:
                        break
                except CheckpointError:  # no header yet
                    pass
                time.sleep(0.01)
        finally:
            server.drain("signal:SIGTERM")
        assert job.state is JobState.CANCELLED and job.resume_dir
        assert_resumes(scratch, job.resume_dir, point)
    assert repro_segments() <= segments


def check_fleet_point(point, fleet):
    if fleet == "dist":  # SIGINT-at-load patches the local pool only
        at = point["interrupt"][1]
        check_dist_point(dict(point, interrupt=("coordkill", at)))
    elif fleet == "serve" and point["target"] != "stream":
        check_drained_job(point)
    else:  # a serve job cannot be a stream: the daemon refuses one
        check_point(point)


def test_resume_lattice_long():
    if settings.get_current_profile_name() != LONG:
        pytest.skip(f"long profile only: --hypothesis-profile {LONG}")
    # Decorated here, not at import: ``given`` binds the settings in
    # force when it is applied, and the profile loads after import.
    fleets = st.sampled_from(["mp", "dist", "serve"])
    given(point=POINTS, fleet=fleets)(check_fleet_point)()
