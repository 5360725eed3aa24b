"""End-to-end daemon tests through ``python -m repro`` subprocesses."""

import os
import signal
import subprocess

import pytest

from repro.serve.client import ServeClient, ServeError

from .. import procs
from ..procs import assert_group_gone


def serve(state_dir, *flags):
    """``repro serve`` in its own process group (stderr into stdout)."""
    return procs.spawn(
        "-m", "repro", "serve", "--state-dir", state_dir, "--procs", "2",
        *flags, stderr=subprocess.STDOUT,
    )


def stop(process):
    """SIGTERM the daemon if it still runs; its group must be gone."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    assert_group_gone(process.pid)


@pytest.fixture
def daemon(tmp_path):
    state_dir = str(tmp_path / "state")
    process = serve(state_dir, "--max-running", "2")
    client = ServeClient(os.path.join(state_dir, "serve.sock"))
    try:
        client.wait_ready(timeout=30)
        yield process, client, state_dir
    finally:
        stop(process)


def test_submit_wait_status_and_sigterm_drain(daemon):
    process, client, state_dir = daemon
    socket_path = os.path.join(state_dir, "serve.sock")

    low = client.submit("fig1", priority=0)
    status, stdout, _ = procs.repro(
        "submit", "fig1", "--socket", socket_path, "--priority", "5",
        "--wait",
    )
    assert status == 0, stdout
    assert "done" in stdout
    assert "value_total=4620605" in stdout

    client.wait(low["id"], timeout=60)
    status, stdout, _ = procs.repro("status", "--socket", socket_path)
    assert status == 0, stdout
    assert "2/2 workers live" in stdout
    assert stdout.count("done") >= 2

    status, stdout, _ = procs.repro(
        "status", low["id"], "--socket", socket_path
    )
    assert status == 0
    assert stdout.startswith(f"{low['id']}: done")

    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=30) == 0
    output = process.stdout.read()
    assert "drained (signal:SIGTERM)" in output
    assert os.path.exists(os.path.join(state_dir, "jobs.json"))
    assert os.path.exists(os.path.join(state_dir, "events.jsonl"))


def test_client_shutdown_drains_fully_before_exit(tmp_path):
    """A client ``shutdown`` drains on a daemon thread; the CLI loop's
    own ``drain()`` must wait for it — not return early and exit before
    the pool is stopped and ``jobs.json`` written."""
    state_dir = str(tmp_path / "state")
    process = serve(state_dir)
    client = ServeClient(os.path.join(state_dir, "serve.sock"))
    try:
        client.wait_ready(timeout=30)
        done = client.submit("fig1")
        client.wait(done["id"], timeout=60)
        client.shutdown()
        assert process.wait(timeout=30) == 0
    finally:
        stop(process)
    assert "drained (shutdown)" in process.stdout.read()
    assert os.path.exists(os.path.join(state_dir, "jobs.json"))
    assert os.path.exists(os.path.join(state_dir, "events.jsonl"))


def test_submit_against_dead_socket_fails_cleanly(tmp_path):
    missing = str(tmp_path / "nope.sock")
    status, _, stderr = procs.repro(
        "submit", "fig1", "--socket", missing, timeout=30
    )
    assert status == 2
    assert "cannot reach serve daemon" in stderr

    with pytest.raises(ServeError):
        ServeClient(missing).ping()


def test_queue_rejection_over_the_wire(tmp_path):
    """A one-slot, one-deep daemon rejects the third submission."""
    state_dir = str(tmp_path / "state")
    process = serve(state_dir, "--max-running", "1", "--queue-limit", "1")
    client = ServeClient(os.path.join(state_dir, "serve.sock"))
    try:
        client.wait_ready(timeout=30)
        blocker = client.submit(
            "examples/fig1.f", overrides={"tasks": 256, "elements": 3000}
        )
        queued = client.submit("fig1")
        with pytest.raises(ServeError, match="queue full \\(limit 1\\)"):
            client.submit("fig1")
        assert client.wait(blocker["id"], timeout=90)["state"] == "done"
        assert client.wait(queued["id"], timeout=90)["state"] == "done"
    finally:
        stop(process)
