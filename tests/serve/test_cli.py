"""End-to-end daemon tests through ``python -m repro`` subprocesses."""

import os
import signal
import subprocess
import sys

import pytest

from repro.serve.client import ServeClient, ServeError

from ..procs import assert_group_gone

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(REPO_SRC), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


@pytest.fixture
def daemon(tmp_path):
    state_dir = str(tmp_path / "state")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            state_dir,
            "--procs",
            "2",
            "--max-running",
            "2",
        ],
        env=repro_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    socket_path = os.path.join(state_dir, "serve.sock")
    client = ServeClient(socket_path)
    try:
        client.wait_ready(timeout=30)
        yield process, client, state_dir
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)


def run_cli(args, timeout=90):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_submit_wait_status_and_sigterm_drain(daemon):
    process, client, state_dir = daemon
    socket_path = os.path.join(state_dir, "serve.sock")

    low = client.submit("fig1", priority=0)
    completed = run_cli(
        [
            "submit",
            "fig1",
            "--socket",
            socket_path,
            "--priority",
            "5",
            "--wait",
        ]
    )
    assert completed.returncode == 0, completed.stdout
    assert "done" in completed.stdout
    assert "value_total=4620605" in completed.stdout

    client.wait(low["id"], timeout=60)
    status = run_cli(["status", "--socket", socket_path])
    assert status.returncode == 0, status.stdout
    assert "2/2 workers live" in status.stdout
    assert status.stdout.count("done") >= 2

    one = run_cli(["status", low["id"], "--socket", socket_path])
    assert one.returncode == 0
    assert one.stdout.startswith(f"{low['id']}: done")

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
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", state_dir,
            "--procs", "2",
        ],
        env=repro_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    client = ServeClient(os.path.join(state_dir, "serve.sock"))
    try:
        client.wait_ready(timeout=30)
        done = client.submit("fig1")
        client.wait(done["id"], timeout=60)
        client.shutdown()
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    assert "drained (shutdown)" in process.stdout.read()
    assert os.path.exists(os.path.join(state_dir, "jobs.json"))
    assert os.path.exists(os.path.join(state_dir, "events.jsonl"))
    assert_group_gone(process.pid)


def test_submit_against_dead_socket_fails_cleanly(tmp_path):
    missing = str(tmp_path / "nope.sock")
    result = run_cli(["submit", "fig1", "--socket", missing], timeout=30)
    assert result.returncode == 2
    assert "cannot reach serve daemon" in result.stderr

    with pytest.raises(ServeError):
        ServeClient(missing).ping()


def test_queue_rejection_over_the_wire(tmp_path):
    """A one-slot, one-deep daemon rejects the third submission."""
    state_dir = str(tmp_path / "state")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", state_dir,
            "--procs", "2",
            "--max-running", "1",
            "--queue-limit", "1",
        ],
        env=repro_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
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
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
