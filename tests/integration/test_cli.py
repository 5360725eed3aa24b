"""CLI tests (``python -m repro``)."""

import pathlib

import pytest

from repro.__main__ import main
from repro.apps.kernels import REAL_WORKLOADS

FIG1_F = str(pathlib.Path(__file__).parents[2] / "examples" / "fig1.f")

FIG4 = """
program fig4
  integer i, j, a, n
  real x(n, n), y(n)
  real sum
  do i = 1, n
    x(a, i) = x(a, i) + y(i)
  end do
  sum = 0
  do i = 1, n
    do j = 1, n
      sum = sum + x(j, i)
    end do
  end do
end program
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "fig4.f"
    path.write_text(FIG4)
    return str(path)


def test_compile_report(source_file, capsys):
    assert main(["compile", source_file]) == 0
    out = capsys.readouterr().out
    assert "split" in out


def test_compile_emit_delirium(source_file, capsys):
    assert main(["compile", source_file, "--emit", "delirium"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(graph fig4")
    from repro.delirium import parse as parse_delirium

    assert parse_delirium(out).name == "fig4"


def test_compile_emit_sections(source_file, capsys):
    assert main(["compile", source_file, "--emit", "sections"]) == 0
    out = capsys.readouterr().out
    assert "! section" in out
    assert "do " in out


def test_compile_no_transforms(source_file, capsys):
    assert main(["compile", source_file, "--no-split", "--no-pipeline"]) == 0
    out = capsys.readouterr().out
    assert "split primitive" not in out


def test_descriptors_command(source_file, capsys):
    assert main(["descriptors", source_file]) == 0
    out = capsys.readouterr().out
    assert "primitive 0" in out
    assert "write:" in out
    assert "x[a, 1..n]" in out


def test_simulate_command(capsys):
    # What `simulate APP` printed is `run APP --backend sim` (a modes x
    # processors table is a shell loop over it).
    code = main(
        ["run", "emu", "--backend", "sim", "--mode", "taper", "-p", "64",
         "--steps", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "emu (taper): backend=sim p=64" in out


def test_simulate_unknown_app(capsys):
    # `simulate` and `trace` are no longer verbs: `run` is the only
    # command that executes.
    for verb in ("simulate", "trace"):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "nonesuch"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def _assert_trace_outputs(trace_path, metrics_path, processors):
    import json

    document = json.loads(trace_path.read_text())
    assert isinstance(document["traceEvents"], list)
    assert all(e["ph"] in ("X", "i", "M") for e in document["traceEvents"])
    metrics = json.loads(metrics_path.read_text())
    assert metrics["processors"] == processors
    assert 0.0 < metrics["utilization"] <= 1.0
    assert set(metrics["breakdown"]) == {"compute", "sched", "comm", "idle"}
    assert len(metrics["per_processor"]) == processors


def test_trace_workload(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    code = main(
        [
            "run",
            "vortex",
            "--backend",
            "sim",
            "-p",
            "32",
            "--steps",
            "1",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
            "--timeline",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "vortex (split): backend=sim p=32" in out
    assert "utilization" in out
    assert "p00 " in out  # timeline rows (zero-padded lane labels)
    _assert_trace_outputs(trace_path, metrics_path, 32)


def test_trace_source_file(source_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    code = main(
        [
            "run",
            source_file,
            "--backend",
            "sim",
            "-p",
            "16",
            "--tasks",
            "64",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fig4.f: backend=sim p=16" in out
    # Utilization > 0 is what proves the sim path emits chunk events for
    # a compiled graph (the session's chunks, not an op-level rate model).
    _assert_trace_outputs(trace_path, metrics_path, 16)


def test_sim_runs_are_byte_identical(tmp_path, capsys):
    """The simulator is deterministic end to end: the same run twice
    writes the same trace and metrics, byte for byte."""
    written = []
    for name in ("first", "second"):
        trace, metrics = tmp_path / f"{name}.json", tmp_path / f"{name}.m"
        code = main(
            ["run", FIG1_F, "--backend", "sim", "-p", "32",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        )
        assert code == 0
        written.append((trace.read_bytes(), metrics.read_bytes()))
    assert written[0] == written[1]


def test_sim_checkpoint_resumes_every_task(tmp_path, capsys):
    """A simulated run obeys its fault plan and journals as a real one
    does: worker 0 dies at its second chunk, the total stays exact, and
    resuming the finished run restores every task and runs none."""
    ops = REAL_WORKLOADS["fig1"]()
    total = sum(float(op.kernel(x)) for op in ops for x in op.payloads)
    ckpt = tmp_path / "ckpt"
    code = main(
        ["run", "fig1", "--backend", "sim", "-p", "4",
         "--checkpoint", str(ckpt), "--inject-fault", "kill:0:1"]
    )
    assert code == 0
    first = capsys.readouterr().out
    assert "workers died: [0]" in first
    assert (ckpt / "journal.jsonl").is_file()
    assert main(["run", "--backend", "sim", "--resume", str(ckpt)]) == 0
    second = capsys.readouterr().out
    assert "resumed: 131 tasks restored" in second
    for out in (first, second):
        assert f"value_total={total:.0f}" in out


def test_a_killed_run_leaves_its_trace_for_the_audit(tmp_path, capsys):
    ckpt, events = str(tmp_path / "ckpt"), str(tmp_path / "t.jsonl")
    code = main(
        ["run", "reduction", "--backend", "sim", "-p", "2",
         "--checkpoint", ckpt, "--inject-fault", "coordkill:*:3",
         "--trace-out", events]
    )
    assert code == 23
    assert pathlib.Path(events).is_file()
    assert main(["audit", events, ckpt]) == 0


def test_app_target_checkpoints_dies_and_resumes(tmp_path, capsys):
    """A Section 5 app is one session: it journals, dies on a
    ``coordkill``, resumes to the exact count, and both runs audit."""
    ckpt = str(tmp_path / "ckpt")
    first, second = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    code = main(
        ["run", "emu", "--backend", "sim", "-p", "8", "--steps", "1",
         "--checkpoint", ckpt, "--inject-fault", "coordkill:*:40",
         "--trace-out", first]
    )
    assert code == 23
    assert main(["audit", first, ckpt]) == 0
    capsys.readouterr()
    code = main(["run", "--backend", "sim", "--resume", ckpt,
                 "--trace-out", second])
    assert code == 0
    out = capsys.readouterr().out
    assert "emu (split): backend=sim p=8 tasks=10286" in out
    assert "value_total=10286" in out and "resumed: " in out
    assert main(["audit", second, ckpt]) == 0


def test_trace_unknown_target(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    code = main(
        [
            "run",
            "nonesuch",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    assert "unknown run target" in capsys.readouterr().err
    assert not trace_path.exists()


# ---------------------------------------------------------------------------
# Flags derived from RunConfig/PoolConfig field metadata
# ---------------------------------------------------------------------------

#: ``{subcommand: {option strings (or positional): (default, choices)}}``
#: as ``build_parser()`` produced it when every flag was hand-written
#: (PR 14): deriving flags from the config fields must not rename, drop
#: or re-default one.  The ``trace`` and ``simulate`` verbs are gone
#: with their 12 flags; ``--timeline`` / ``--timeline-width`` moved onto
#: ``run``, the one command that executes.  ``audit`` takes no flag.
#: ``--data-plane``, ``--high-watermark`` and ``--low-watermark`` went
#: (payload size and the page window decide), and ``--batching`` lost
#: ``on``.
FROZEN_FLAGS = {
    "audit": {
        "artifacts": (None, None),
    },
    "compile": {
        "--emit": ("report", ("report", "delirium", "sections")),
        "--no-pipeline": (False, None),
        "--no-split": (False, None),
        "file": (None, None),
    },
    "descriptors": {
        "file": (None, None),
    },
    "hostagent": {
        "--bind": ("127.0.0.1", None),
        "--port": (0, None),
        "--shm-cache-bytes": (None, None),
        "--start-method": (None, ("fork", "spawn", "forkserver")),
        "--workers -w": (4, None),
    },
    "run": {
        "--backend": ("sim", ("sim", "mp", "dist")),
        "--batching": ("auto", ("auto", "off")),
        "--checkpoint": (None, None),
        "--cost-source": ("measured", ("measured", "declared")),
        "--hosts": (None, None),
        "--inject-fault": (None, None),
        "--max-retries": (2, None),
        "--metrics-out": (None, None),
        "--mode": (None, ("taper", "split")),
        "--on-fault": ("retry", ("retry", "fail")),
        "--page-records": (None, None),
        "--page-tasks": (None, None),
        "--policy": (
            "taper",
            ("taper", "taper-nocost", "self", "gss", "factoring", "static"),
        ),
        "--procs -p": (4, None),
        "--records-per-task": (None, None),
        "--resume": (None, None),
        "--seed": (0, None),
        "--speculate": (None, None),
        "--steps": (None, None),
        "--stream": (False, None),
        "--stream-records": (None, None),
        "--tasks": (None, None),
        "--timeline": (False, None),
        "--timeline-width": (72, None),
        "--timeout": (120.0, None),
        "--trace-out": (None, None),
        "--wall-clock-limit": (None, None),
        "--window": (4, None),
        "target": (None, None),
    },
    "serve": {
        "--idle-timeout": (None, None),
        "--max-respawns": (3, None),
        "--max-running": (4, None),
        "--max-workers": (None, None),
        "--min-workers": (None, None),
        "--procs -p": (4, None),
        "--queue-limit": (8, None),
        "--respawn-backoff": (0.1, None),
        "--shm-cache-bytes": (None, None),
        "--socket": (None, None),
        "--start-method": (None, ("fork", "spawn", "forkserver")),
        "--state-dir": (".repro-serve", None),
    },
    "status": {
        "--socket": (".repro-serve/serve.sock", None),
        "job": (None, None),
    },
    "submit": {
        "--inject-fault": (None, None),
        "--policy": (
            None,
            ("taper", "taper-nocost", "self", "gss", "factoring", "static"),
        ),
        "--priority": (0, None),
        "--seed": (None, None),
        "--socket": (".repro-serve/serve.sock", None),
        "--tasks": (None, None),
        "--wait": (False, None),
        "--wait-timeout": (300.0, None),
        "target": (None, None),
    },
}


def _subparsers():
    import argparse

    from repro.__main__ import build_parser

    return next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )


def test_generated_parser_matches_the_frozen_flag_surface():
    surface = {
        command: {
            " ".join(action.option_strings) or action.dest: (
                action.default,
                tuple(action.choices) if action.choices else None,
            )
            for action in sub._actions
            if "--help" not in action.option_strings
        }
        for command, sub in _subparsers().items()
    }
    assert surface == FROZEN_FLAGS


def _config_flag_cases():
    import dataclasses

    from repro.runtime.config import PoolConfig, RunConfig

    subparsers = _subparsers()
    for command in ("run", "serve", "hostagent", "submit"):
        options = subparsers[command]._option_string_actions
        for cls in (RunConfig, PoolConfig):
            for f in dataclasses.fields(cls):
                flag = f.metadata.get("flags", ("",))[0]
                if flag in options:
                    yield pytest.param(command, cls, f, id=f"{command}{flag}")


@pytest.mark.parametrize("command, cls, f", _config_flag_cases())
def test_flag_sets_exactly_its_config_field(command, cls, f):
    from repro.runtime.config import from_args

    parser = _subparsers()[command]
    flag = f.metadata["flags"][0]
    choices = f.metadata.get("choices")
    if choices:
        value = next(c for c in reversed(choices) if c != f.default)
    else:
        value = {int: 7, float: 1.5, None: "127.0.0.1:7000"}[
            parser._option_string_actions[flag].type
        ]
    argv = ["fig1"] if command == "submit" else []
    base = from_args(cls, parser.parse_args(argv))
    got = from_args(cls, parser.parse_args(argv + [flag, str(value)]))
    assert got[f.name] == value
    assert {name for name in got if got[name] != base[name]} == {f.name}
    # `submit` leaves unset overrides None; everything else constructs.
    config = cls(**{k: v for k, v in got.items() if v is not None})
    assert getattr(config, f.name) == value


def test_every_config_backed_flag_is_exercised():
    # 26 since --data-plane and the two watermarks went; an empty
    # generator would pass the test above vacuously.
    assert len(list(_config_flag_cases())) >= 26


def test_run_rejects_out_of_range_values_with_exit_2(capsys):
    assert main(["run", "fig1", "--timeout", "0"]) == 2
    assert "mp_timeout" in capsys.readouterr().err
    assert main(["run", "fig1", "--window", "0"]) == 2
    assert "stream_window" in capsys.readouterr().err
    assert main(["run", "fig1", "--inject-fault", "meteor:0"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


def test_ports_out_of_range_exit_2_with_one_line(capsys):
    # getaddrinfo would wrap 73616 to 8080 and bind() raises
    # OverflowError for 70000: both are refused before any socket.
    for port in ("65536", "70000"):
        assert main(["hostagent", "--port", port]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "0-65535" in err
    hosts = "127.0.0.1:7000,127.0.0.1:73616"
    assert main(["run", "fig1", "--backend", "dist", "--hosts", hosts]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1-65535" in err and "73616" in err
