"""The real CLI, end to end, one row per fleet.

Each row drives ``python -m repro`` in process groups of its own
(:mod:`tests.procs`): plain mp, a shm stream cut by SIGINT and resumed,
a worker kill, a torn-tail resume, two ``hostagent`` processes behind
``--backend dist``, and a ``serve`` daemon drained by SIGTERM.  Every
row must leave no process
and no new ``/dev/shm/repro_*`` segment behind, and ends in
``repro audit`` over the artifacts it left.
"""

import os
import signal

import pytest

from repro import api
from repro.apps.streams import synthetic_total
from repro.runtime.config import RunConfig
from repro.runtime.faults import COORDINATOR_KILL_EXIT

from .. import procs


def run_ok(*args):
    status, stdout, stderr = procs.repro(*args)
    assert status == 0, stderr
    return stdout


def mp(tmp_path):
    events = str(tmp_path / "events.jsonl")
    run_ok("run", "fig1", "--backend", "mp", "-p", "2", "--trace-out", events)
    return [events]


#: ``python -c`` body: ``repro ARGV``, with SIGINT raised at this
#: process from inside its second real ``WorkerPool.load``.
SIGINT_AT_LOAD = """
import os, signal, sys
from repro.__main__ import main
from repro.runtime.backends.pool import WorkerPool
load, loads = WorkerPool.load, []
def interrupted(self, *args):
    loads.append(args)
    if len(loads) == 2:
        os.kill(os.getpid(), signal.SIGINT)
    return load(self, *args)
WorkerPool.load = interrupted
sys.exit(main(sys.argv[1:]))
"""


def mp_stream(tmp_path):
    """Ctrl-C while a real pool lays out a stream page: the run drains
    (exit 130) and its resume finishes the stream exactly."""
    ckpt, events = str(tmp_path / "ckpt"), str(tmp_path / "events.jsonl")
    status, stdout, stderr = procs.run(
        "-c", SIGINT_AT_LOAD, "run", "stream", "--backend", "mp", "-p", "2",
        "--window", "2", "--stream-records", "40000", "--checkpoint", ckpt,
    )
    assert status == 130, stdout + stderr
    stdout = run_ok(
        "run", "--backend", "mp", "--resume", ckpt, "--trace-out", events
    )
    assert f"value_total={synthetic_total(40_000):.0f}" in stdout
    assert "data plane:" in stdout  # 160 KB pages: shared memory
    return [events, ckpt]


def mp_kill(tmp_path):
    events = str(tmp_path / "events.jsonl")
    stdout = run_ok(
        "run", "fig1", "--backend", "mp", "-p", "3", "--inject-fault",
        "kill:*:1", "--trace-out", events,
    )
    assert "faults:" in stdout and "value_total=4620605" in stdout
    return [events]


def torn_tail_resume(tmp_path):
    """A coordinator killed mid-run, then a host crash mid-append (the
    journal's last 7 bytes torn off): the resume costs one record, not
    the run."""
    ckpt, events = str(tmp_path / "ckpt"), str(tmp_path / "events.jsonl")
    run = ("run", "reduction", "--backend", "mp", "-p", "2",
           "--cost-source", "declared")
    status, _, stderr = procs.repro(
        *run, "--checkpoint", ckpt, "--inject-fault", "coordkill:*:4"
    )
    assert status == COORDINATOR_KILL_EXIT, stderr
    assert os.listdir(ckpt) == ["journal.jsonl"]
    journal = os.path.join(ckpt, "journal.jsonl")
    os.truncate(journal, os.path.getsize(journal) - 7)
    stdout = run_ok(
        "run", "--backend", "mp", "--resume", ckpt, "--trace-out", events
    )
    ops, _deps, _label = api.resolve_ops(
        "reduction", RunConfig(backend="mp", cost_source="declared")
    )
    total = sum(float(op.kernel(item)) for op in ops for item in op.payloads)
    assert "resumed:" in stdout and f"value_total={total:.0f}" in stdout
    return [events, ckpt]


def dist(tmp_path):
    """Two agents that cache nothing, so whatever a run maps on them is
    gone when it returns; SIGTERM stops each with its workers."""
    agents = [
        procs.spawn(
            "-m", "repro", "hostagent", "-w", "2", "--shm-cache-bytes", "1"
        )
        for _ in range(2)
    ]
    try:
        ports = [agent.stdout.readline().split("port=")[1].split()[0]
                 for agent in agents]
        events = str(tmp_path / "events.jsonl")
        stdout = run_ok(
            "run", "fig1", "--backend", "dist", "--hosts",
            ",".join(f"127.0.0.1:{port}" for port in ports),
            "--trace-out", events,
        )
        assert " p=4 " in stdout and "value_total=4620605" in stdout
    finally:
        for agent in agents:
            agent.send_signal(signal.SIGTERM)
            agent.communicate(timeout=30)
            procs.assert_group_gone(agent.pid)
    return [events]


def serve(tmp_path):
    state = str(tmp_path / "state")
    daemon = procs.spawn("-m", "repro", "serve", "--state-dir", state,
                         "--procs", "2")
    try:
        assert "repro serve:" in daemon.stdout.readline()
        stdout = run_ok(
            "submit", "fig1", "--socket", os.path.join(state, "serve.sock"),
            "--wait",
        )
        assert "done" in stdout and "value_total=4620605" in stdout
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.communicate(timeout=30)
    assert daemon.returncode == 0
    procs.assert_group_gone(daemon.pid)
    return [state]


ROWS = [mp, mp_stream, mp_kill, torn_tail_resume, dist, serve]


@pytest.mark.parametrize("row", ROWS, ids=[row.__name__ for row in ROWS])
def test_cli_leaves_nothing_and_passes_the_audit(row, tmp_path):
    segments = procs.repro_segments()
    artifacts = row(tmp_path)
    assert not procs.repro_segments() - segments
    status, report, stderr = procs.repro("audit", *artifacts)
    assert status == 0, report + stderr
