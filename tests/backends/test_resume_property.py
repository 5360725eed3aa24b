"""The resume lattice, as one property on real processes.

A point of the lattice is a target, a cost source, a batching mode and
an interruption: ``coordkill`` at a drawn dispatch
(exit 23), or a SIGINT raised inside a real ``WorkerPool``'s k-th
``load`` (exit 130).  The stream target comes at two page sizes, so the
data plane is drawn through the payloads: 10-task pages lay out to
16,000 B and ride pickle, 50-task pages to 80,000 B and land on shm.
Every run is the ``repro`` CLI in a process group of its own, and
``run --resume`` then finishes the job.  At every point:

* the resume exits 0 and reports the closed-form or serial-reference
  total;
* ``repro audit`` passes on the resumed run's events (its
  ``--trace-out``) and the journal: no task the journal restored runs
  again, and every task settles once;
* no process and no new ``/dev/shm/repro_*`` segment outlives a run.

Tier-1 runs a fixed seed, with the declared-cost stream point pinned.
The long profile (``--hypothesis-profile resume-lattice-long``; it is
registered here, and ``conftest.py`` imports this module so the flag
finds it) draws more points and adds two fleets: a ``dist`` run of two
loopback agents resumed on one of them (the width-free fingerprint
allows it), and a serve job drained mid-flight.
"""

import functools
import os
import tempfile
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.apps.streams import synthetic_total
from repro.obs import audit
from repro.runtime.backends.dist import HostAgent
from repro.runtime.checkpoint import CheckpointError, read_journal
from repro.runtime.config import RunConfig
from repro.runtime.faults import COORDINATOR_KILL_EXIT
from repro.serve.jobs import JobState
from repro.serve.server import JobServer

from .. import procs
from ..procs import repro_segments

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
    "stream-shm": (
        "stream", "--stream-records", str(STREAM_RECORDS),
        "--records-per-task", "200", "--page-records", "10000",
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
        "batching": st.sampled_from(["auto", "off"]),
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
    "target": "stream-shm",
    "cost_source": "declared",
    "batching": "auto",
    "interrupt": ("coordkill", 5),
}


def cli(*argv, sigint_at_load=0):
    """``repro argv`` in its own process group; returns ``(status,
    stdout, stderr)`` once the whole group is gone."""
    return procs.run("-c", CLI, str(sigint_at_load), *argv, timeout=60)


@functools.lru_cache(maxsize=None)
def reference_total(target):
    if target.startswith("stream"):
        return synthetic_total(STREAM_RECORDS)
    ops, _deps, _label = api.resolve_ops(
        TARGETS[target][0], RunConfig(backend="mp", processors=2)
    )
    return sum(float(op.kernel(item)) for op in ops for item in op.payloads)


def run_options(point):
    return (
        "--cost-source", point["cost_source"],
        "--batching", point["batching"],
    )


def assert_resumes(scratch, ckpt, point, fleet=("--backend", "mp")):
    """Resume ``ckpt``; check the point's total, then audit the run."""
    events = os.path.join(scratch, "resumed.jsonl")
    status, stdout, stderr = cli(
        "run", *fleet, "--resume", ckpt, "--trace-out", events,
    )
    assert status == 0, stderr
    assert f"value_total={reference_total(point['target']):.0f}" in stdout
    audit.check(audit.load([events, ckpt]))


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
    elif fleet == "serve" and not point["target"].startswith("stream"):
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
