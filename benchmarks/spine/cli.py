"""Command line of the measurement spine.

``--workload NAME --seed N --seconds S --trace 0|1`` is one run as the
driver makes it: the last line of standard output is one JSON object.
Without ``--workload`` every workload runs untraced, then traced, every
metric is printed by name with its unit, and a stamped record is written
that ``diff A.json B.json`` compares with another.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join("benchmarks", "spine", "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> Dict[str, object]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def declared(spec: Dict[str, object], traced: bool) -> Dict[str, Dict[str, object]]:
    """The metrics one run must print, by name."""
    return {
        metric["name"]: metric
        for metric in spec["per_layer" if traced else "end_to_end"]
    }


#: What the client saw on the untraced pass (rates and walls) is
#: reported with the per-layer metrics under this prefix: on this VM it
#: does not repeat well enough to carry a bound (see README).
CLIENT = "client."


def one_pass(
    name: str, seed: int, seconds: float, traced: bool, setups: int
) -> "Outcome":
    """One pass of one workload, hygiene checks included."""
    from . import host
    from .workloads import WORKLOADS, Options

    scratch = os.path.join(OUT_DIR, f"t{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shm_before = host.shm_names()
    opts = Options(
        root=ROOT, seed=seed, seconds=seconds, traced=traced,
        scratch=scratch, setups=setups,
    )
    try:
        outcome = WORKLOADS[name](opts)
    finally:
        leftovers = os.listdir(scratch)
        shutil.rmtree(scratch, ignore_errors=True)
    multiprocessing.active_children()  # reaps what has already ended
    problems = []
    if leftovers:
        problems.append(f"temp state left behind: {leftovers}")
    leaked = host.shm_names() - shm_before
    if leaked:
        problems.append(f"leaked /dev/shm segments: {sorted(leaked)}")
    strays = host.stray_children()
    if strays:
        problems.append(f"surviving processes: {strays}")
    if problems:
        raise host.HygieneError("; ".join(problems))
    for failure in outcome.failures:
        print(f"failed: {failure}", file=sys.stderr)
    return outcome


def run_workload(
    spec: Dict[str, object],
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
) -> Dict[str, object]:
    """One run as the driver counts them.  Untraced: the end-to-end
    metrics.  Traced: a shorter untraced pass for what the client saw,
    then the traced pass, together the per-layer metrics."""
    from .trace import self_time_by_layer

    end_to_end = declared(spec, traced=False)
    plain = one_pass(
        name, seed, 0.4 * seconds if traced else seconds, False,
        setups=1 if traced else (2 if quick else 5),
    )
    missing = set(end_to_end) - set(plain.metrics)
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    readings = {
        (key if key in end_to_end else CLIENT + key): reading
        for key, reading in plain.metrics.items()
    }
    attempted, failed = plain.attempted, plain.failed
    if traced:
        outcome = one_pass(name, seed, seconds, True, setups=1)
        readings = {
            key: reading for key, reading in readings.items()
            if key not in end_to_end
        }
        readings.update(outcome.metrics)
        attempted += outcome.attempted
        failed += outcome.failed
    wanted = declared(spec, traced)
    unknown = set(readings) - set(wanted) - set(declared(spec, traced=True))
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    units = {**declared(spec, traced=True), **wanted}

    def entry(metric_name: str) -> Dict[str, object]:
        # A layer the workload bypasses did no work: it reads 0.
        reading = readings.get(metric_name)
        return {
            "value": reading.value if reading else 0.0,
            "unit": units[metric_name]["unit"],
            "spread": reading.spread if reading else 0.0,
            "samples": reading.samples if reading else 0,
        }

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric_name: entry(metric_name) for metric_name in wanted},
    }
    if not traced:
        # The full window's client.* values: in the record and the
        # table, not on the driver's line.
        result["client"] = {
            key: entry(key) for key in readings if key.startswith(CLIENT)
        }
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        outcome.recorder.write(os.path.join(OUT_DIR, f"trace-{name}.json"))
        result["self_time_s"] = self_time_by_layer(outcome.recorder.spans)
    return result


def driver_line(result: Dict[str, object]) -> str:
    """The contract's last line: exactly four keys, value and unit only."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": reading["value"], "unit": reading["unit"]}
                for name, reading in result["metrics"].items()
            },
        }
    )


def print_table(title: str, result: Dict[str, object]) -> None:
    print(f"\n{title}: attempted={result['attempted']} failed={result['failed']}")
    for name, reading in {**result["metrics"], **result.get("client", {})}.items():
        spread = f" (iqr {reading['spread']:.4g})" if reading["spread"] else ""
        print(f"  {name:<52} {reading['value']:>14.6g} {reading['unit']}{spread}")
    for layer, seconds in sorted(result.get("self_time_s", {}).items()):
        print(f"  self time in {layer:<39} {seconds:>14.6g} s")


def run_all(args: argparse.Namespace, spec: Dict[str, object]) -> int:
    """Every workload untraced, then traced; print; write the record."""
    from . import host

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "env": host.stamp(ROOT, OUT_DIR, args.seed),
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {}
        for traced in (False, True):
            result = run_workload(
                spec, name, args.seed, args.seconds, traced, args.quick
            )
            key = "per_layer" if traced else "end_to_end"
            entry[key] = result["metrics"]
            if not traced:
                entry["client"] = result["client"]
            entry[f"{key}_attempted"] = result["attempted"]
            entry[f"{key}_failed"] = result["failed"]
            failed += result["failed"]
            print_table(f"{name} [{key}]", result)
        attempted = entry["end_to_end_attempted"] + entry["per_layer_attempted"]
        entry["failed_share"] = (
            entry["end_to_end_failed"] + entry["per_layer_failed"]
        ) / attempted
        print(f"  {'failed_share':<52} {entry['failed_share']:>14.6g} ratio")
        record["workloads"][name] = entry
    path = args.out or os.path.join(
        OUT_DIR,
        f"spine-{str(record['env']['commit'])[:12]}-seed{args.seed}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nrecord: {path}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["diff"]:
        from .diff import main as diff_main

        return diff_main(argv[1:], load_spec())
    parser = argparse.ArgumentParser(prog="benchmarks.spine", description=__doc__)
    parser.add_argument("--workload", help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke preset: 2 s windows, 2 set-ups",
    )
    parser.add_argument("--out", help="where the all-workloads record goes")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; pick from {names}")
    # The daemon's socket path has to stay under 108 bytes wherever the
    # checkout lives, so every path from here on is relative to ROOT.
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from . import host

    # A terminated benchmark unwinds like an interrupted one, so that
    # daemons and pools are stopped by their owners' ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload is None:
            return run_all(args, spec)
        result = run_workload(
            spec, args.workload, args.seed, args.seconds, bool(args.trace),
            args.quick,
        )
    finally:
        host.end_children()
    print_table(args.workload, result)
    print(driver_line(result))
    return 0
