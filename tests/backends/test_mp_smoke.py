"""Multiprocessing backend smoke tests — sized for a 2-core CI box.

Every run is bounded twice: the backend's own ``mp_timeout`` watchdog
and the suite-wide SIGALRM guard in ``tests/conftest.py``.
"""

import time

import pytest

from repro.runtime.backends import (
    MpBackendError,
    MultiprocessingBackend,
    real_machine_config,
)
from repro.runtime.config import RunConfig
from repro.runtime.kernel import Kernel
from repro.runtime.task import ParallelOp, RealOp

CFG = RunConfig(processors=2, backend="mp", mp_timeout=60.0, time_scale=5e-5)


def failing_kernel(payload):
    raise RuntimeError("kernel exploded")


def identity_kernel(payload):
    return float(payload)


def sleepy_kernel(seconds):
    time.sleep(seconds)
    return 0.0


def test_spin_op_runs_on_real_children():
    op = ParallelOp(name="spin", costs=[4.0] * 24)
    result = MultiprocessingBackend().run_op(op, CFG)
    assert result.backend == "mp"
    assert result.time_unit == "seconds"
    assert result.tasks == 24
    assert result.value_total == 24.0  # spin kernels return 1.0 per task
    assert result.makespan > 0.0
    assert result.chunks >= 1


def test_real_op_values_summed():
    op = RealOp(
        name="ident",
        kernel=Kernel(fn=identity_kernel),
        payloads=[float(i) for i in range(16)],
    )
    result = MultiprocessingBackend().run_op(op, CFG)
    assert result.value_total == sum(range(16))


def test_dependencies_respected():
    ops = [
        RealOp(name="first", kernel=Kernel(fn=identity_kernel), payloads=[1.0] * 8),
        RealOp(
            name="second",
            kernel=Kernel(fn=identity_kernel),
            payloads=[2.0] * 8,
            deps=("first",),
        ),
    ]
    result = MultiprocessingBackend().run_ops(ops, CFG)
    assert result.tasks == 16
    first = result.per_op["first"]
    second = result.per_op["second"]
    # The dependent op cannot start before the prerequisite finishes.
    assert second.finish >= first.finish


def test_pipeline_runs_all_stages():
    # A pipelined loop as declared deps: A_D(i) needs A_I(i) and the
    # loop-carried A_M(i-1); A_M(i) needs A_D(i); A_I is independent, so
    # iteration i+1's independent stage overlaps iteration i's dependent
    # work.
    spin = Kernel(fn=identity_kernel)
    ops = []
    for i in range(2):
        carried = (f"merge[{i - 1}]",) if i else ()
        ops += [
            RealOp(name=f"independent[{i}]", kernel=spin, payloads=[1.0] * 10),
            RealOp(
                name=f"dependent[{i}]",
                kernel=spin,
                payloads=[1.0] * 10,
                deps=(f"independent[{i}]",) + carried,
            ),
            RealOp(
                name=f"merge[{i}]",
                kernel=spin,
                payloads=[1.0] * 4,
                deps=(f"dependent[{i}]",),
            ),
        ]
    result = MultiprocessingBackend().run_ops(ops, CFG)
    assert result.tasks == 48
    assert result.value_total == 48.0
    assert len(result.per_op) == 6  # 3 stages x 2 iterations
    finish = {name: outcome.finish for name, outcome in result.per_op.items()}
    assert finish["independent[0]"] <= finish["dependent[0]"]
    assert finish["dependent[0]"] <= finish["merge[0]"] <= finish["dependent[1]"]


def test_worker_exception_propagates_with_on_fault_fail():
    # on_fault="fail" restores the pre-fault-tolerance contract: the
    # first kernel exception aborts the whole run.
    op = RealOp(name="boom", kernel=Kernel(fn=failing_kernel), payloads=[0.0] * 4)
    strict = CFG.with_(on_fault="fail")
    with pytest.raises(MpBackendError, match="kernel exploded"):
        MultiprocessingBackend().run_op(op, strict)


def test_watchdog_times_out_stuck_run():
    # A kernel far slower than the deadline: the watchdog must abort
    # rather than wait for completion, and the teardown gives the four
    # stuck workers one 2 s grace between them, not 2 s each.
    slow = RealOp(name="slow", kernel=Kernel(fn=sleepy_kernel), payloads=[30.0] * 8)
    tight = CFG.with_(mp_timeout=2.0, processors=4)
    start = time.monotonic()
    with pytest.raises(MpBackendError, match="watchdog expired"):
        MultiprocessingBackend().run_op(slow, tight)
    assert time.monotonic() - start < 7.0


def test_tracer_gets_wall_clock_events():
    from repro.obs import Tracer
    from repro.obs.events import CHUNK_ACQUIRE, TASK_DISPATCH

    tracer = Tracer()
    cfg = CFG.with_(tracer=tracer)
    op = ParallelOp(name="traced", costs=[4.0] * 12)
    MultiprocessingBackend().run_op(op, cfg)
    kinds = {event.kind for event in tracer.events}
    assert TASK_DISPATCH in kinds
    assert CHUNK_ACQUIRE in kinds
    procs = {
        event.proc for event in tracer.events if event.kind == TASK_DISPATCH
    }
    # Both workers did work (12 spin tasks across 2 workers).
    assert procs == {0, 1}


def test_real_machine_config_scaled_to_seconds():
    machine = real_machine_config(2)
    assert machine.processors == 2
    assert machine.sched_overhead < 0.01  # seconds, not work units


# -- graph attachment guard (graph_ops_and_deps, before any backend runs) -----


def _fig1_graph_and_ops():
    import repro.api as api
    from repro.apps.kernels import graph_real_ops

    program = api.compile(open("examples/fig1.f").read())
    op_map = graph_real_ops(program.graph, tasks=8, elements=50)
    return program.graph, op_map


@pytest.mark.parametrize("backend_name", ["sim", "mp"])
def test_unattached_graph_node_raises_naming_it(backend_name):
    from repro.runtime.backends import get_backend
    from repro.runtime.backends.base import graph_ops_and_deps

    graph, op_map = _fig1_graph_and_ops()
    dropped = next(iter(sorted(op_map)))
    name = next(n.name for n in graph.nodes if n.id == dropped)
    del op_map[dropped]
    cfg = CFG.with_(backend=backend_name, cost_source="declared")
    with pytest.raises(ValueError, match=name):
        ops, deps = graph_ops_and_deps(graph, op_map)
        get_backend(backend_name).run_ops(ops, cfg, deps)


def test_allow_placeholder_restores_structure_only_runs():
    from repro.runtime.backends import get_backend
    from repro.runtime.backends.base import graph_ops_and_deps

    graph, op_map = _fig1_graph_and_ops()
    dropped = next(iter(sorted(op_map)))
    del op_map[dropped]
    cfg = CFG.with_(cost_source="declared")
    ops, deps = graph_ops_and_deps(graph, op_map, allow_placeholder=True)
    result = get_backend("mp").run_ops(ops, cfg, deps)
    # Remaining ops ran; the placeholder contributed zero tasks.
    assert result.tasks == sum(op.size for op in op_map.values())


def test_pipeline_mirror_nodes_exempt_from_attachment_check():
    # graph_real_ops skips pipeline-role nodes by design; the attachment
    # check must accept that without allow_placeholder.
    graph, op_map = _fig1_graph_and_ops()
    from repro.runtime.backends import check_graph_attachment

    check_graph_attachment(graph, op_map, allow_placeholder=False)


# -- start method and picklability -------------------------------------------


def test_default_start_method_prefers_fork():
    import multiprocessing

    from repro.runtime.backends import default_start_method

    method = default_start_method()
    assert method in multiprocessing.get_all_start_methods()
    if "fork" in multiprocessing.get_all_start_methods():
        assert method == "fork"


def test_unpicklable_kernel_under_spawn_names_the_op():
    cfg = CFG.with_(mp_start_method="spawn")
    bad = RealOp(
        name="closure",
        kernel=Kernel(fn=lambda payload: float(payload)),  # unpicklable local
        payloads=[1.0] * 4,
    )
    with pytest.raises(MpBackendError, match="closure.*not picklable"):
        MultiprocessingBackend().run_op(bad, cfg)


@pytest.mark.parametrize("holder", ["tuple", "object array"])
def test_unpicklable_payload_names_the_op(holder):
    """Only a plain numpy array skips the picklability probe: a tuple or
    an object-dtype array holding a lambda still fails naming the op."""
    np = pytest.importorskip("numpy")
    if holder == "tuple":
        payload = (1.0, lambda: 0.0)
    else:
        payload = np.empty(2, dtype=object)
        payload[:] = [1.0, lambda: 0.0]
    bad = RealOp(
        name="badpay",
        kernel=Kernel(fn=len),
        payloads=[payload] * 4,
    )
    with pytest.raises(
        MpBackendError, match="badpay.*payloads are not picklable"
    ):
        MultiprocessingBackend().run_op(bad, CFG)


def test_unpicklable_kernel_under_fork_names_the_op():
    # Ops reach every worker by ``load`` message whatever the start
    # method, so fork no longer smuggles a closure in copy-on-write.
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("platform has no fork")
    cfg = CFG.with_(mp_start_method="fork")
    bad = RealOp(
        name="closure",
        kernel=Kernel(fn=lambda payload: float(payload)),
        payloads=[1.0] * 4,
    )
    with pytest.raises(MpBackendError, match="closure.*not picklable"):
        MultiprocessingBackend().run_op(bad, cfg)
