#!/usr/bin/env python3
"""Quickstart: compile the paper's Figure 1 program end to end.

Walks the full toolchain on the running example from Graham, Lucco &
Sharp (PLDI '93):

1. parse the FORTRAN-flavoured source,
2. build symbolic data descriptors for the two interacting computations,
3. apply the split transformation (Figure 2) and pipelining (Figure 3),
4. emit the Delirium coordination graph,
5. execute the graph on the simulated distributed-memory machine,
6. execute the same graph for real, on multiprocessing workers.

Run:  python examples/quickstart.py

The same workload runs on either backend with ``python -m repro run
examples/fig1.f --backend mp --procs 2`` (README's "Choosing a
backend"); add ``--timeline`` to trace it (README's "Tracing a run").
"""

import pathlib

import repro.api as api
from repro.analysis import analyze_unit
from repro.compiler import compile_unit
from repro.descriptors import DescriptorBuilder, interfere
from repro.lang import parse_unit, print_stmts

# The Figure 1 program lives in fig1.f so the CLI can run the same
# workload: python -m repro run examples/fig1.f --timeline
FIG1_SOURCE = (
    pathlib.Path(__file__).resolve().with_name("fig1.f").read_text()
)


def main() -> None:
    unit = parse_unit(FIG1_SOURCE)

    print("=" * 70)
    print("1. Symbolic data descriptors (Section 3.2)")
    print("=" * 70)
    analysis = analyze_unit(unit)
    builder = DescriptorBuilder(analysis)
    d_a = builder.region(unit.body[:1])
    d_b = builder.region(unit.body[1:])
    print("descriptor of A (the masked column loop):")
    print(d_a)
    print("\ndescriptor of B (the post-processing loop):")
    print(d_b)
    print(f"\nA and B interfere: {interfere(d_a, d_b)}")

    print()
    print("=" * 70)
    print("2. Compilation: split + pipeline + Delirium graph")
    print("=" * 70)
    program = compile_unit(unit)
    print(program.report())

    applied = program.splits[0].result
    print("\nB_I (independent — runs concurrently with A):")
    print(print_stmts(applied.independent, indent=1))
    print("\nB_D (dependent — runs after A):")
    print(print_stmts(applied.dependent, indent=1))
    print("\nB_M (the merge):")
    print(print_stmts(applied.merge, indent=1))

    print("\nDelirium coordination graph:")
    print(program.delirium_text)

    print("=" * 70)
    print("3. Executing the graph on the simulated machine (Section 4)")
    print("=" * 70)
    # repro.api attaches real kernels to the graph's parallel operators
    # (irregular for masked ops, regular otherwise) and runs it on the
    # backend named in the RunConfig — here the simulator, at scale.
    for p in (32, 128, 512):
        result = api.run(program, api.RunConfig(processors=p), tasks=256)
        print(
            f"  p={p:4d}  makespan={result.makespan:9.1f}  "
            f"efficiency={result.efficiency:5.2f}"
        )

    print()
    print("=" * 70)
    print("4. Executing the graph for real (multiprocessing backend)")
    print("=" * 70)
    # Same program, same kernels, but now each task is a Python call on
    # a real worker process; time is wall-clock seconds and the TAPER
    # chunk sizes come from measured task durations.
    result = api.run(
        program,
        api.RunConfig(processors=2, backend="mp", mp_timeout=120.0),
        tasks=32,
        elements=200,
    )
    print(f"  {result.summary()}")


if __name__ == "__main__":
    main()
