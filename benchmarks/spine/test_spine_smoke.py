"""Smoke test of the measurement spine (``pytest benchmarks/spine``).

Outside tier-1's ``testpaths``: it spawns daemons and worker pools and
takes about two minutes.  Everything runs through the command line, the
way the driver and a developer do.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from .trace import nesting_errors

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV_KEYS = {
    "commit", "dirty", "nproc", "cpu_model", "python", "numpy",
    "start_method", "state_dir_fs", "seed", "utc",
}


def spine(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """One ``--quick`` pass over every workload, untraced then traced."""
    path = str(tmp_path_factory.mktemp("spine") / "record.json")
    done = spine("--quick", "--seed", "7", "--out", path)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(path) as handle:
        return json.load(handle)


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


def test_record_is_stamped_and_complete(spec, record):
    assert ENV_KEYS <= set(record["env"])
    assert record["env"]["seed"] == 7
    assert set(record["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in record["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            assert set(entry[section]) == set(declared), (name, section)
            for metric, reading in entry[section].items():
                assert reading["unit"] == declared[metric]
                assert isinstance(reading["value"], (int, float))
        for metric, reading in entry["end_to_end"].items():
            assert reading["value"] > 0, (name, metric)


def test_nothing_failed(record):
    for name, entry in record["workloads"].items():
        assert entry["failed_share"] == 0, name
        assert entry["end_to_end_attempted"] >= 1
        assert entry["per_layer"]["serve.server.rejected"]["value"] == 0


def test_exact_counts(record):
    """The counters that guard the workloads read the same every run."""
    layer = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in record["workloads"].items()
    }
    shm = "runtime.backends.shm."
    payload = layer["batch_payload"]
    assert payload[shm + "cache_hit_share.miss_arm"] == 0.0
    assert payload[shm + "cache_hit_share.hit_arm"] == 1.0
    assert payload[shm + "evictions_per_run"] == 1.0
    assert payload[shm + "bytes_shipped_per_run"] == 32 * 65536 * 8
    assert layer["batch_compute"][shm + "cache_hit_share.hit_arm"] == 1.0
    assert layer["batch_compute"][shm + "bytes_shipped_per_run"] == 0
    for name in ("serve_small", "serve_mixed"):
        # Short tuple payloads stay on the pickle plane.
        assert layer[name][shm + "map_ms_per_mib"] == 0
        assert layer[name]["runtime.checkpoint.journal_bytes_per_job"] > 0
    for name in ("batch_compute", "batch_payload"):
        assert layer[name]["serve.protocol.rpc_rtt_us"] == 0
        assert layer[name]["runtime.checkpoint.append_fsync_us"] == 0


def test_spans_are_well_nested(spec, record):
    for workload in spec["workloads"]:
        path = os.path.join(HERE, "out", f"trace-{workload['name']}.json")
        with open(path) as handle:
            spans = json.load(handle)["spans"]
        assert spans, workload["name"]
        assert nesting_errors(spans) == []
        for span in spans:
            assert set(span) == {"name", "layer", "start", "end", "parent", "request"}
        layers = {span["layer"] for span in spans}
        assert {"api", "runtime.taper", "runtime.backends.mp", "apps.kernels"} <= layers


def session_members(session):
    """Running processes of ``session`` (zombies have ended)."""
    members = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _, _, sid = handle.read().rpartition(")")[2].split()[:4]
        except OSError:
            continue
        if int(sid) == session and state != "Z":
            members.append(int(entry))
    return members


def test_driver_line(spec, tmp_path):
    """One run as the driver makes it.  Its output goes to a file: a
    pipe would be held open by, and so wait for, the very stragglers
    the last assertion looks for."""
    with open(tmp_path / "stdout", "w+") as stdout:
        done = subprocess.Popen(
            [
                sys.executable, RUN, "--workload", "batch_payload", "--seed", "3",
                "--seconds", "2", "--trace", "0", "--quick",
            ],
            cwd=ROOT, stdout=stdout, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        assert done.wait(timeout=600) == 0
        left = session_members(done.pid)
        stdout.seek(0)
        line = json.loads(stdout.read().strip().splitlines()[-1])
    assert left == [], "processes outlived the command"
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for reading in line["metrics"].values():
        assert set(reading) == {"value", "unit"} and reading["value"] > 0


def test_fails_without_the_program(spec, tmp_path):
    """In a directory that holds only BENCHMARK.json and ``paths``
    there is nothing to measure: the command must say so, not print a
    result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    done = spine(
        "--workload", "serve_small", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), script=str(tmp_path / spec["command"][1]),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
