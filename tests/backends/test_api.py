"""The repro.api facade: compile / run / trace over every target kind."""

import json

import pytest

import repro.api as api
import repro.compiler as compiler
from repro.runtime.config import RunConfig
from repro.runtime.kernel import Kernel
from repro.runtime.task import ParallelOp, RealOp

SIM = RunConfig(processors=4)

FIG1_SOURCE = open("examples/fig1.f").read()


def test_compile_returns_program():
    program = api.compile(FIG1_SOURCE)
    assert program.graph.nodes


def test_compile_empty_source_raises():
    with pytest.raises(ValueError):
        api.compile("")


def test_run_real_workload_by_name():
    result = api.run("fig1", SIM)
    assert result.backend == "sim"
    assert result.tasks > 0
    assert result.value_total > 0
    assert result.time_unit == "work-units"


def test_run_app_workload_by_name():
    result = api.run("climate", SIM, mode="split", steps=1)
    assert result.backend == "sim"
    assert result.speedup > 1.0


def test_run_source_path():
    result = api.run("examples/fig1.f", SIM, tasks=16, elements=100)
    assert result.target == "fig1.f"
    assert result.tasks > 0


def test_run_compiled_program():
    program = api.compile(FIG1_SOURCE)
    result = api.run(program, SIM, tasks=16, elements=100)
    assert result.tasks > 0


def test_run_single_op_and_sequence():
    op = ParallelOp(name="solo", costs=[5.0] * 32)
    assert api.run(op, SIM).tasks == 32
    pair = [
        ParallelOp(name="a", costs=[5.0] * 16),
        ParallelOp(name="b", costs=[5.0] * 16),
    ]
    assert api.run(pair, SIM).tasks == 32


def test_run_unknown_target_raises():
    with pytest.raises(ValueError, match="unknown run target"):
        api.run("no-such-workload", SIM)


def test_run_empty_sequence_raises():
    with pytest.raises(ValueError, match="empty"):
        api.run([], SIM)


def test_run_keyword_overrides_config():
    result = api.run("fig1", SIM, processors=2)
    assert result.processors == 2


def test_run_invalid_override_raises():
    with pytest.raises(ValueError):
        api.run("fig1", SIM, backend="quantum")


def test_trace_produces_exportable_report(tmp_path):
    result, report = api.trace("fig1", SIM)
    assert report.events
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    report.write_chrome_trace(str(trace_path))
    report.write_metrics(str(metrics_path))
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    assert doc["otherData"]["time_unit"] == "work units"
    assert json.loads(metrics_path.read_text())["processors"] == 4
    assert "makespan" in report.summary()
    assert report.timeline()


def test_trace_mp_marks_seconds(tmp_path):
    cfg = RunConfig(processors=2, backend="mp", mp_timeout=60.0)
    result, report = api.trace("reduction", cfg)
    assert result.time_unit == "seconds"
    assert report.time_unit == "seconds"
    trace_path = tmp_path / "mp_trace.json"
    report.write_chrome_trace(str(trace_path))
    doc = json.loads(trace_path.read_text())
    assert doc["otherData"]["time_unit"] == "seconds"
    assert doc["otherData"]["time_scale_us_per_unit"] == 1e6
    # Events are sorted chronologically for the exporters.
    times = [e.time for e in report.events]
    assert times == sorted(times)


def test_real_op_run_serial_matches_parallel_value():
    ident = RealOp(
        name="ident",
        kernel=Kernel(fn=_payload_kernel),
        payloads=[float(i) for i in range(10)],
        costs=[1.0] * 10,
    )
    _, total = ident.run_serial()
    assert total == sum(range(10))
    assert api.run(ident, SIM).value_total == total


def _payload_kernel(payload):
    return float(payload)


# -- one way in: run executes exactly what resolve_ops returns ---------------


class _Capture:
    """A backend that records what ``run_ops`` was handed."""

    name = "capture"
    calls = 0

    def run_ops(self, ops, cfg, deps=None):
        self.ops, self.deps = list(ops), deps
        self.calls += 1
        return api.BackendRunResult(
            backend=self.name,
            makespan=1.0,
            total_work=1.0,
            processors=cfg.processors,
            tasks=sum(op.size for op in ops),
            chunks=0,
            time_unit="work-units",
        )


def _op_identity(op):
    if isinstance(op, ParallelOp):
        return (op.name, op.costs)
    if op.is_stream:
        return (op.name, op.kernel, "stream")
    return (op.name, op.kernel, op.payloads, op.costs)


_PAIR = [
    ParallelOp(name="a", costs=[5.0] * 4),
    RealOp(
        name="b",
        kernel=Kernel(fn=_payload_kernel),
        payloads=[1.0, 2.0],
        costs=[1.0, 1.0],
        deps=("a",),
    ),
]


@pytest.mark.parametrize(
    "target, shape",
    [
        ("psirrfan", {}),
        ("examples/fig1.f", {"tasks": 8, "elements": 10}),
        (api.compile(FIG1_SOURCE), {"tasks": 8, "elements": 10}),
        (_PAIR[0], {}),
        (_PAIR, {}),
        ("stream", {"stream_records": 400, "page_records": 200}),
    ],
    ids=["workload", "file", "program", "op", "ops", "stream"],
)
def test_run_executes_exactly_what_resolve_ops_returns(target, shape):
    ops, deps, label = api.resolve_ops(target, SIM, shape)
    capture = _Capture()
    result = api.run(target, SIM, executor=capture, **shape)
    assert result.target == label
    assert [_op_identity(op) for op in capture.ops] == [
        _op_identity(op) for op in ops
    ]
    assert [set(d) for d in capture.deps] == [set(d) for d in deps]
    if label in ("psirrfan", "fig1.f", "a+b"):
        assert any(deps)  # declared dependences reach the backend


def test_the_duplicate_paths_are_gone_from_the_source():
    """Every arrow of target -> (ops, deps) -> run_ops -> result exists
    once: the second ladder, the copied result class, the extra backend
    entries, the fluid graph executor and the `trace` verb's private
    wave loop are deleted, docstrings included."""
    import inspect
    import re
    from pathlib import Path

    import repro
    from repro.runtime.backends import Backend

    root = Path(repro.__file__).parent
    source = {path: path.read_text() for path in root.rglob("*.py")}
    gone = re.compile(
        r"def run_graph\b|def run_pipeline\b|_from_backend|GraphExecutor"
        r"|_trace_source_file"
    )
    assert {
        str(path.relative_to(root)): gone.findall(text)
        for path, text in source.items()
        if gone.search(text)
    } == {}
    # `runtime.machine.RunResult` (the simulator's) is a different class.
    assert not hasattr(api, "RunResult") and "RunResult" not in api.__all__
    declared = {
        name
        for name, member in vars(Backend).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }
    assert declared == {"prepare", "release", "run_op", "run_ops"}
    # One function classifies a string target against the workload
    # tables, and the workload-override names are listed once.
    membership = re.compile(r"\bin (REAL|ALL|STREAM)_WORKLOADS\b")
    entry = {
        path: text
        for path, text in source.items()
        if path.parent == root / "serve"
        or path in (root / "api.py", root / "__main__.py")
    }
    assert [
        path.name for path, text in entry.items() if membership.search(text)
    ] == ["api.py"]
    assert len(membership.findall(entry[root / "api.py"])) == len(
        membership.findall(inspect.getsource(api.resolve_ops))
    )
    assert sum(text.count('"page_tasks"') for text in entry.values()) == 1


def test_app_workload_is_one_session():
    # One graph of the app's phases, each group waiting on every op of
    # the group before it: resolve_ops (and so a serve submit) returns
    # it, and mp hands it to run_ops once.
    ops, deps, label = api.resolve_ops("climate", SIM, {"steps": 2})
    assert label == "climate (split)"
    assert [op.name for op in ops] == [
        "dyn0", "cloud0", "rad0", "dyn1", "cloud1", "rad1"
    ]
    assert deps == [set(), {0}, {0}, {0}, {1, 2, 3}, {1, 2, 3}]
    capture = _Capture()
    result = api.run("climate", SIM.with_(backend="mp"), executor=capture)
    assert capture.calls == 1 and capture.deps == deps
    assert list(map(_op_identity, capture.ops)) == list(map(_op_identity, ops))
    assert result.target == "climate (split)" and result.tasks > 0


def test_resume_without_a_stored_target_names_the_directory():
    cfg = SIM.with_(checkpoint_dir="/nonexistent/ckpt", resume=True)
    with pytest.raises(ValueError, match="/nonexistent/ckpt"):
        api.run(None, cfg)
    with pytest.raises(ValueError, match="run target is required"):
        api.run(None, SIM)


# -- the compiled-program cache behind the source-file targets ---------------

POST_SOURCE = """\
program post
  integer i, j, n
  real q(n, n), output(n, n)
  do i = 1, n
    do j = 1, n
      output(j, i) = f(q(j, i))
    end do
  end do
end program
"""


@pytest.fixture
def program_cache():
    """The compiled-program cache, empty before and after the test."""
    api._compiled_text.cache_clear()
    try:
        yield api._compiled_text.cache_info
    finally:
        api._compiled_text.cache_clear()


@pytest.fixture
def compile_calls(monkeypatch):
    """Texts handed to the real compiler, in order."""
    calls = []
    real = compiler.compile_source

    def counted(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(compiler, "compile_source", counted)
    return calls


def _shape(resolved):
    ops, deps, _ = resolved
    return [
        (op.name, op.kernel, op.payloads, op.costs, sorted(dep))
        for op, dep in zip(ops, deps)
    ]


def test_source_file_compiles_once(tmp_path, program_cache, compile_calls):
    path = tmp_path / "fig1.f"
    path.write_text(FIG1_SOURCE)
    first = api.resolve_ops(str(path), SIM, {"tasks": 8, "elements": 10})
    second = api.resolve_ops(str(path), SIM, {"tasks": 8, "elements": 10})
    ran = api.run(str(path), SIM, tasks=8, elements=10)
    assert compile_calls == [FIG1_SOURCE]
    assert _shape(first) == _shape(second)
    assert first[0][0] is not second[0][0]  # ops are built per resolve
    assert ran.tasks == sum(op.size for op in first[0])
    # The public verb still compiles every time and shares nothing.
    assert api.compile(FIG1_SOURCE) is not api.compile(FIG1_SOURCE)
    assert len(compile_calls) == 3


def test_edited_source_file_is_a_new_program(
    tmp_path, program_cache, compile_calls
):
    path = tmp_path / "job.f"
    path.write_text(FIG1_SOURCE)
    before = api.resolve_ops(str(path), SIM, {"tasks": 8})
    path.write_text(POST_SOURCE)
    after = api.resolve_ops(str(path), SIM, {"tasks": 8})
    assert compile_calls == [FIG1_SOURCE, POST_SOURCE]
    assert [op.name for op in after[0]] != [op.name for op in before[0]]
    fresh = api.resolve_ops(api.compile(POST_SOURCE), SIM, {"tasks": 8})
    assert _shape(after) == _shape(fresh)


@pytest.mark.parametrize(
    "seed, shape",
    [(3, {"tasks": 8, "elements": 10}), (11, {"tasks": 24, "elements": 70})],
)
def test_cached_program_resolves_like_a_fresh_compile(
    program_cache, seed, shape
):
    cfg = SIM.with_(seed=seed)
    api.resolve_ops("examples/fig1.f", cfg, shape)  # fills the cache
    cached = api.resolve_ops("examples/fig1.f", cfg, shape)
    fresh = api.resolve_ops(api.compile(FIG1_SOURCE), cfg, shape)
    assert _shape(cached) == _shape(fresh)


def test_program_cache_is_bounded(tmp_path, program_cache):
    path = tmp_path / "job.f"
    bound = program_cache().maxsize
    assert bound is not None
    for index in range(bound + 4):
        path.write_text(POST_SOURCE.replace("post", f"post{index}"))
        api.resolve_ops(str(path), SIM)
        assert program_cache().currsize <= bound
    assert program_cache().currsize == bound


def test_concurrent_first_resolves_of_one_source(program_cache):
    import threading

    shape = {"tasks": 8, "elements": 10}
    results = {}
    barrier = threading.Barrier(2)

    def resolve(slot):
        barrier.wait(timeout=10)
        results[slot] = api.resolve_ops("examples/fig1.f", SIM, shape)

    threads = [
        threading.Thread(target=resolve, args=(slot,)) for slot in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    fresh = api.resolve_ops(api.compile(FIG1_SOURCE), SIM, shape)
    assert _shape(results[0]) == _shape(results[1]) == _shape(fresh)
    assert program_cache().currsize == 1


def test_payload_estimate_runs_once_per_op(monkeypatch):
    """``bytes_shipped`` counts a pickle-plane payload list once per
    (worker, op) it was loaded on; sizing the list (planning it, which
    declines a layout this small) is per op."""
    from repro.runtime.backends import mp, shm

    cfg = RunConfig(processors=2, backend="mp", mp_timeout=60.0)
    ops, _, _ = api.resolve_ops("examples/fig1.f", cfg)
    sizes = {
        id(op.payloads): shm.estimate_payload_nbytes(op.payloads)
        for op in ops
    }
    sized, loads = [], []
    real_plan = shm.plan_payloads
    real_load = mp.WorkerPool.load

    def plan(payloads):
        sized.append(id(payloads))
        return real_plan(payloads)

    def load(self, wid, key, kernel, payloads):
        facts = real_load(self, wid, key, kernel, payloads)
        nbytes = facts["bytes_shipped"]
        loads.append((key, nbytes))
        assert nbytes == sizes[id(payloads)]
        return facts

    monkeypatch.setattr(shm, "plan_payloads", plan)
    monkeypatch.setattr(mp.WorkerPool, "load", load)
    result = api.run(ops, cfg)
    keys = {key for key, _ in loads}
    assert len(sized) == len(set(sized)) == len(keys)
    assert result.bytes_shipped == sum(nbytes for _, nbytes in loads)
    # Whether an op of the graph reaches both workers is up to timing
    # (it did not, one full run in twenty).  Alone on the pool it must:
    # its first two chunks go out before any report comes back.
    widest = max(ops, key=lambda op: op.size)
    del sized[:], loads[:]
    alone = api.run([widest], cfg)
    assert (len(loads), len(sized)) == (2, 1)
    assert alone.bytes_shipped == 2 * sizes[id(widest.payloads)]
