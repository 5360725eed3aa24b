"""Command-line interface: ``python -m repro <command>``.

* ``compile FILE``      — compile a MiniF source file;
* ``descriptors FILE``  — print its symbolic data descriptors;
* ``run TARGET``        — execute on a backend (``sim``, ``mp``, ``dist``),
  the only command that executes (``--trace-out`` / ``--metrics-out`` /
  ``--timeline`` attach the tracer);
* ``hostagent``         — serve this host's workers to ``run --backend dist``;
* ``serve``             — the resident job daemon;
* ``submit TARGET``     — send a job to a running daemon;
* ``status [JOB]``      — query a running daemon;
* ``audit ARTIFACT...`` — check a run's invariants from its artifacts.

``python -m repro CMD --help`` is the flag reference.  Flags that set a
``RunConfig``/``PoolConfig`` field are declared on the field
(:mod:`repro.runtime.config`) and added here by ``add_flags``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .runtime.config import PoolConfig, RunConfig, add_flags, from_args


def _cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import compile_source

    with open(args.file) as handle:
        source = handle.read()
    programs = compile_source(
        source,
        apply_splits=not args.no_split,
        apply_pipelining=not args.no_pipeline,
    )
    for program in programs:
        if args.emit == "report":
            print(program.report())
        elif args.emit == "delirium":
            print(program.delirium_text, end="")
        elif args.emit == "sections":
            for name, text in program.transformed_sections().items():
                print(f"! section {name}")
                print(text)
                print()
    return 0


def _cmd_descriptors(args: argparse.Namespace) -> int:
    from .analysis import analyze_unit
    from .descriptors import DescriptorBuilder
    from .lang import parse, print_stmts
    from .split import SplitContext, decompose

    with open(args.file) as handle:
        source = handle.read()
    for unit in parse(source).units:
        print(f"! unit {unit.name}")
        context = SplitContext(unit)
        for primitive in decompose(unit.body, context):
            first_line = print_stmts(primitive.stmts).splitlines()[0]
            print(f"primitive {primitive.index} ({primitive.kind}): {first_line}")
            for line in str(primitive.descriptor).splitlines():
                print(f"  {line}")
    return 0


#: Exit status for a run cancelled by SIGINT/SIGTERM (128 + SIGINT,
#: the shell convention for death-by-Ctrl-C).
EXIT_CANCELLED_SIGNAL = 130
#: Exit status for a run stopped by ``--wall-clock-limit`` (EX_TEMPFAIL:
#: partial result checkpointed, try again with ``--resume``).
EXIT_CANCELLED_WALL_CLOCK = 75


def _cmd_run(args: argparse.Namespace) -> int:
    from . import api
    from .obs import Tracer
    from .runtime.checkpoint import JournalFailedError
    from .runtime.faults import (
        COORDINATOR_KILL_EXIT,
        JOURNAL_FAIL_EXIT,
        CoordinatorKilled,
        FaultPlan,
    )

    overrides = {
        name: value
        for name in api.WORKLOAD_OVERRIDES
        if (value := getattr(args, name, None)) is not None
        and value is not False
    }
    # --resume DIR names the journal to replay and to keep appending to.
    args.checkpoint = args.resume or args.checkpoint
    tracing = args.trace_out or args.metrics_out or args.timeline
    try:
        config = RunConfig(
            **from_args(RunConfig, args),
            fault_plan=FaultPlan.parse(args.inject_fault or ()),
            resume=bool(args.resume),
            tracer=Tracer() if tracing else None,
        )
        if args.resume:
            # Re-apply the manifest's scheduling fields (processors,
            # policy, ...) so forgetting to restate them can't trip the
            # fingerprint check; the stored target stands in for none.
            config = api.resume_config(args.resume, config)
        if tracing:
            result, report = api.trace(args.target, config, **overrides)
        else:
            result, report = api.run(args.target, config, **overrides), None
    except (ValueError, api.CheckpointError) as error:
        print(str(error), file=sys.stderr)
        return 2
    except (JournalFailedError, CoordinatorKilled) as error:
        # The run died, but what it did up to then is still evidence
        # for `repro audit` beside its journal.
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        if tracing:
            unit = "work-units" if config.backend == "sim" else "seconds"
            report = api.TraceReport.of(config.tracer, config.processors, unit)
            _write_artifacts(args, report)
        if isinstance(error, CoordinatorKilled):
            return COORDINATOR_KILL_EXIT
        return JOURNAL_FAIL_EXIT
    print(result.summary())
    if report is not None:
        _write_artifacts(args, report)
        print()
        print(report.summary())
        if args.timeline:
            print()
            print(report.timeline(args.timeline_width))
    if result.cancelled:
        return (
            EXIT_CANCELLED_WALL_CLOCK
            if result.cancel_reason == "wall_clock_limit"
            else EXIT_CANCELLED_SIGNAL
        )
    return 0


def _write_artifacts(args: argparse.Namespace, report) -> None:
    """Write the ``--trace-out`` / ``--metrics-out`` files of a run."""
    if args.trace_out and args.trace_out.endswith(".jsonl"):
        with open(args.trace_out, "w") as handle:
            handle.write(report.tracer.to_jsonl())
        print(f"events       -> {args.trace_out}")
    elif args.trace_out:
        report.write_chrome_trace(args.trace_out)
        print(f"chrome trace -> {args.trace_out}")
    if args.metrics_out:
        report.write_metrics(args.metrics_out)
        print(f"metrics      -> {args.metrics_out}")


def _cmd_audit(args: argparse.Namespace) -> int:
    from .obs.audit import audit, load

    try:
        run = load(args.artifacts)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    return audit(run)


def _warm_fork() -> None:
    """Import what every job runs before a resident pool forks, so its
    workers inherit the modules instead of importing them on their
    first ``load``.  The compiler half stays out: only a source-file
    job loads it, on first sight."""
    from . import api  # noqa: F401
    from .apps import kernels  # noqa: F401


def _cmd_hostagent(args: argparse.Namespace) -> int:
    from .runtime.backends import MpBackendError, run_hostagent

    _warm_fork()
    try:
        run_hostagent(
            args.workers,
            port=args.port,
            bind=args.bind,
            start_method=args.start_method,
            shm_cache_bytes=args.shm_cache_bytes,
        )
    except (MpBackendError, OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _default_socket(state_dir: str) -> str:
    import os

    return os.path.join(state_dir, "serve.sock")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .runtime.backends.pool import WorkerPool
    from .serve.server import JobServer

    _warm_fork()
    socket_path = args.socket or _default_socket(args.state_dir)
    try:
        pool_config = PoolConfig(**from_args(PoolConfig, args))
        pool = WorkerPool(args.procs, args.start_method, pool_config)
        pool.start()
        server = JobServer(
            pool,
            socket_path=socket_path,
            state_dir=args.state_dir,
            queue_limit=args.queue_limit,
            max_running=args.max_running,
            base_config=RunConfig(mp_start_method=args.start_method),
        )
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    server.start()
    stop = threading.Event()
    reason = {"value": "shutdown"}

    def _request_stop(signum, frame):
        reason["value"] = f"signal:{signal.Signals(signum).name}"
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _request_stop)
    print(
        f"repro serve: pid={__import__('os').getpid()} "
        f"pool={args.procs} workers, socket={socket_path}, "
        f"state={args.state_dir}",
        flush=True,
    )
    while not stop.is_set():
        # The daemon also exits once a client shutdown request drains it.
        if server.draining:
            break
        stop.wait(0.2)
    status = server.drain(reason["value"])
    jobs = status.get("jobs", [])
    print(
        f"repro serve: drained ({reason['value']}): "
        f"{len(jobs)} job(s) tracked, "
        f"{sum(1 for j in jobs if j['state'] == 'done')} done, "
        f"{sum(1 for j in jobs if j['state'] == 'cancelled')} cancelled",
        flush=True,
    )
    for job in jobs:
        if job.get("resume_dir"):
            print(
                f"  {job['id']}: resume with `python -m repro run "
                f"--backend mp --resume {job['resume_dir']}`",
                flush=True,
            )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve.client import ServeClient, ServeError

    given = from_args(RunConfig, args)
    given.update(tasks=args.tasks, inject_fault=args.inject_fault)
    overrides = {k: v for k, v in given.items() if v is not None}
    client = ServeClient(args.socket)
    try:
        job = client.submit(
            args.target, priority=args.priority, overrides=overrides
        )
        print(
            f"{job['id']}: {job['state']} "
            f"(target={job['target']}, priority={job['priority']})"
        )
        if args.wait:
            job = client.wait(job["id"], timeout=args.wait_timeout)
            print(_job_line(job))
            if job["state"] != "done":
                return 1
    except ServeError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _job_line(job: dict) -> str:
    line = f"{job['id']}: {job['state']} target={job['target']}"
    result = job.get("result")
    if result:
        line += (
            f" value_total={result['value_total']:.0f}"
            f" makespan={result['makespan']:.3f}s"
            f" tasks={result['tasks']} chunks={result['chunks']}"
        )
    if job.get("error"):
        line += f" error={job['error']}"
    if job.get("error_file"):
        line += f" error_file={job['error_file']}"
    if job.get("resume_dir"):
        line += f" resume_dir={job['resume_dir']}"
    return line


def _cmd_status(args: argparse.Namespace) -> int:
    from .serve.client import ServeClient, ServeError

    client = ServeClient(args.socket)
    try:
        if args.job:
            response = client.status(args.job)
            print(_job_line(response["job"]))
        else:
            response = client.status()
            print(
                f"serve: {response['live_workers']}/"
                f"{response['processors']} workers live, "
                f"{response['running']} running, "
                f"{response['queued']} queued"
                + (" (draining)" if response.get("draining") else "")
            )
            pool = response.get("pool")
            if pool and (
                pool["respawns"]
                or pool["grows"]
                or pool["shrinks"]
                or pool["quarantined"]
            ):
                print(
                    f"pool:  {pool['respawns']} respawned, "
                    f"{pool['grows']} grown, {pool['shrinks']} shrunk, "
                    f"quarantined slots: "
                    f"{pool['quarantined'] or 'none'}"
                )
            for job in response["jobs"]:
                print(_job_line(job))
    except ServeError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


#: The ``RunConfig`` fields ``run`` exposes as flags.
_RUN_FIELDS = (
    "backend", "processors", "hosts", "policy", "cost_source", "seed",
    "mp_timeout", "on_fault", "max_retries",
    "checkpoint_dir", "speculation_factor",
    "wall_clock_limit", "batching", "stream_window",
)
#: The ``PoolConfig`` fields ``serve`` exposes as flags.
_SERVE_POOL_FIELDS = (
    "min_workers", "max_workers", "idle_timeout", "max_respawns",
    "respawn_backoff", "shm_cache_bytes",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Orchestrating Interactions Among Parallel "
            "Computations' (PLDI 1993)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_parser = commands.add_parser(
        "compile", help="compile a MiniF source file"
    )
    compile_parser.add_argument("file")
    compile_parser.add_argument("--no-split", action="store_true")
    compile_parser.add_argument("--no-pipeline", action="store_true")
    compile_parser.add_argument(
        "--emit",
        choices=("report", "delirium", "sections"),
        default="report",
    )
    compile_parser.set_defaults(func=_cmd_compile)

    descriptor_parser = commands.add_parser(
        "descriptors", help="print symbolic data descriptors"
    )
    descriptor_parser.add_argument("file")
    descriptor_parser.set_defaults(func=_cmd_descriptors)

    run_parser = commands.add_parser(
        "run", help="execute a source file or workload on a backend"
    )
    run_parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "a MiniF source file, a real-kernel workload "
            "(fig1, reduction, psirrfan), an application workload, or a "
            "streaming source (the built-in `stream`, or a JSON-lines "
            "file with --stream) "
            "(optional with --resume: the checkpointed target is reused)"
        ),
    )
    add_flags(run_parser, RunConfig, _RUN_FIELDS)
    run_parser.add_argument(
        "--mode",
        default=None,
        choices=("taper", "split"),
        help=(
            "graph shape of an application-workload target: split runs "
            "independent phases side by side (static chunking is "
            "--policy static)"
        ),
    )
    run_parser.add_argument(
        "--steps", type=int, default=None,
        help="time steps for application-workload targets",
    )
    run_parser.add_argument(
        "--tasks", type=int, default=None,
        help="tasks per parallel op for source-file targets",
    )
    run_parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="KIND[:WORKER[:CHUNK[:ARG]]]",
        help=(
            "inject a deterministic fault into an mp run (repeatable): "
            "kill:1:2 kills worker 1 at its 2nd chunk; raise:*:3:2 makes "
            "kernels raise on global dispatches 3 and 4; delay:0:1:0.25 "
            "holds worker 0's reply 0.25s"
        ),
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "replay the chunk journal in DIR, skip completed chunks, and "
            "run only the remainder (TARGET defaults to the one recorded "
            "at checkpoint time)"
        ),
    )
    run_parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "treat TARGET as a streaming source (mp or dist backend): the "
            "built-in synthetic paged source (`stream`, implied) or a "
            "JSON-lines records file read page by page instead of "
            "compiled as MiniF; see README 'Streaming ingestion'"
        ),
    )
    run_parser.add_argument(
        "--stream-records", type=int, default=None, metavar="N",
        help="synthetic stream length in records (default 200000)",
    )
    run_parser.add_argument(
        "--records-per-task", type=int, default=None, metavar="N",
        help="records packed into one stream task (default 200)",
    )
    run_parser.add_argument(
        "--page-records", type=int, default=None, metavar="N",
        help="records per admitted page of the synthetic stream "
        "(default 20000)",
    )
    run_parser.add_argument(
        "--page-tasks", type=int, default=None, metavar="N",
        help="tasks per page for JSON-lines stream targets (default 256)",
    )
    run_parser.add_argument(
        "--trace-out", default=None,
        help="trace output path: canonical events JSONL (what `audit` "
        "reads) if it ends in .jsonl, else Chrome trace JSON",
    )
    run_parser.add_argument(
        "--metrics-out", default=None, help="metrics JSON output path"
    )
    run_parser.add_argument(
        "--timeline",
        action="store_true",
        help="print an ASCII per-processor timeline",
    )
    run_parser.add_argument("--timeline-width", type=int, default=72)
    run_parser.set_defaults(func=_cmd_run)

    hostagent_parser = commands.add_parser(
        "hostagent",
        help=(
            "expose this host's workers to a remote `run --backend "
            "dist` coordinator over TCP"
        ),
    )
    hostagent_parser.add_argument(
        "--workers", "-w", type=int, default=4,
        help="local worker processes this agent exposes",
    )
    hostagent_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (default: an ephemeral port, "
        "printed on the ready line)",
    )
    hostagent_parser.add_argument(
        "--bind", default="127.0.0.1",
        help="interface to bind (default loopback; 0.0.0.0 for LAN)",
    )
    add_flags(hostagent_parser, RunConfig, ("mp_start_method",))
    add_flags(hostagent_parser, PoolConfig, ("shm_cache_bytes",))
    hostagent_parser.set_defaults(func=_cmd_hostagent)

    serve_parser = commands.add_parser(
        "serve",
        help=(
            "run the resident job daemon: a warm mp worker pool on a "
            "Unix socket with Eq. 1 cross-job worker rationing"
        ),
    )
    serve_parser.add_argument(
        "--state-dir",
        default=".repro-serve",
        help=(
            "daemon state directory: per-job checkpoint journals, the "
            "default socket, and the shutdown dump (jobs.json, "
            "events.jsonl)"
        ),
    )
    serve_parser.add_argument(
        "--socket",
        default=None,
        help="Unix socket path (default: STATE_DIR/serve.sock)",
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=8,
        help="admission control: queued jobs beyond this are rejected",
    )
    serve_parser.add_argument(
        "--max-running", type=int, default=4,
        help="concurrent job sessions sharing the pool",
    )
    add_flags(serve_parser, RunConfig, ("processors", "mp_start_method"))
    add_flags(serve_parser, PoolConfig, _SERVE_POOL_FIELDS)
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = commands.add_parser(
        "submit", help="submit a job to a running serve daemon"
    )
    submit_parser.add_argument(
        "target",
        help=(
            "a real-kernel workload (fig1, reduction, psirrfan) or a "
            "MiniF source file"
        ),
    )
    submit_parser.add_argument(
        "--socket",
        default=_default_socket(".repro-serve"),
        help="daemon socket path",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0,
        help="higher runs first (FIFO within a priority band)",
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result",
    )
    submit_parser.add_argument(
        "--wait-timeout", type=float, default=300.0,
        help="seconds --wait is willing to block",
    )
    # Per-job overrides: absent unless given.
    add_flags(submit_parser, RunConfig, ("seed", "policy"), optional=True)
    submit_parser.add_argument(
        "--tasks", type=int, default=None,
        help="tasks per parallel op for source-file targets",
    )
    submit_parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="KIND[:WORKER[:CHUNK[:ARG]]]",
        help=(
            "inject a deterministic fault into this job (repeatable; "
            "same grammar as `run --inject-fault`): poolkill:*:2:1 "
            "kills one pool worker at global dispatch 2 and the "
            "elastic pool respawns it"
        ),
    )
    submit_parser.set_defaults(func=_cmd_submit)

    status_parser = commands.add_parser(
        "status", help="query a running serve daemon"
    )
    status_parser.add_argument(
        "job", nargs="?", default=None, help="a job id (all jobs if omitted)"
    )
    status_parser.add_argument(
        "--socket",
        default=_default_socket(".repro-serve"),
        help="daemon socket path",
    )
    status_parser.set_defaults(func=_cmd_status)

    audit_parser = commands.add_parser(
        "audit",
        help=(
            "check a run's invariants (repro.obs.audit) from its "
            "artifacts; exit 1 at the first violation"
        ),
    )
    audit_parser.add_argument(
        "artifacts", nargs="+", metavar="ARTIFACT",
        help="an events .jsonl (run --trace-out), a checkpoint "
        "directory, or a serve state directory",
    )
    audit_parser.set_defaults(func=_cmd_audit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
