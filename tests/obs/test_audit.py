"""``repro.obs.audit``: every backend's artifacts pass it, and each
predicate names a counterexample when its invariant breaks."""

import re
import threading

import pytest

from repro import api
from repro.__main__ import main
from repro.apps.kernels import fig1_ops, reduction_ops
from repro.obs import Tracer, audit
from repro.obs.events import Event, events_from_jsonl
from repro.runtime.backends.dist import HostAgent
from repro.runtime.config import RunConfig

from ..serve.servers import process_server

FLEETS = {
    "sim": {"backend": "sim"},
    "mp-shm": {"backend": "mp"},
    "mp-pickle": {"backend": "mp"},
    "dist": {"backend": "dist"},
}

#: The mp-shm row's ops: 4096 two-int tuples and up lay out to at least
#: 64 KiB, so payload size alone puts them on shm; the other rows run
#: the named targets, whose payloads stay on pickle.
WIDE = {
    "fig1": lambda: fig1_ops(columns=10_000, elements=4),
    "reduction": lambda: reduction_ops(leaves=4096, length=16),
}


@pytest.fixture(scope="module")
def hosts():
    """Two loopback agents, shared by this module's dist runs."""
    agents = [HostAgent(1, die_hard=False) for _ in range(2)]
    for agent in agents:
        agent.start()
        threading.Thread(target=agent.serve_forever, daemon=True).start()
    yield ",".join(f"127.0.0.1:{agent.port}" for agent in agents)
    for agent in agents:
        agent.stop()


@pytest.mark.parametrize("target", ["fig1", "reduction"])
@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_every_backend_passes_the_audit(fleet, target, request):
    options = dict(FLEETS[fleet], processors=2, mp_timeout=60.0)
    if fleet == "dist":
        options["hosts"] = request.getfixturevalue("hosts")
    tracer = Tracer()
    work = WIDE[target]() if fleet == "mp-shm" else target
    result = api.run(work, RunConfig(tracer=tracer, **options))
    if fleet.startswith("mp-"):
        assert set(result.data_plane.values()) == {fleet[3:]}
    # Through the canonical JSONL, as `run --trace-out x.jsonl` writes it.
    events = events_from_jsonl(tracer.to_jsonl())
    assert any(event.kind == "task.dispatch" for event in events)
    for predicate in audit.PREDICATES:
        assert predicate(audit.Run(events)) is not None, predicate


def test_a_served_jobs_state_dir_passes_the_audit(tmp_path):
    state_dir = str(tmp_path / "state")
    server = process_server(2, state_dir=state_dir)
    try:
        jobs = [server.submit(target)[1] for target in ("fig1", "reduction")]
        for job in jobs:
            assert server.wait(job.id, timeout=60)["job"]["state"] == "done"
    finally:
        server.drain("test")
    run = audit.load([state_dir])
    assert len(run.journals) == 2
    lines = []
    assert audit.audit(run, out=lines.append) == 0, lines


def ev(kind, time=0.0, proc=-1, op="A", **attrs):
    return Event(kind, time, 0.0, proc, op, attrs)


#: One broken stream per predicate: (predicate, events, counterexample).
BROKEN = [
    ("exactly_once", [ev("op.begin", tasks=2), ev("task.dispatch", task=0),
                      ev("run.end", tasks=1)],
     "op 'A' never settled task [1]"),
    ("exactly_once", [ev("task.dispatch", task=0),
                      ev("chunk.retry", quarantined=[0])],
     "op 'A' task 0 settled 2 times"),
    ("restored_never_rerun", [ev("run.resumed", restored={"A": [3]}),
                              ev("task.dispatch", task=3)],
     "[('A', 3)] was restored and ran again"),
    ("rations_fit", [ev("alloc.decide", shares=[2, 1], width=2)],
     "hands out [2, 1] of width 2"),
    ("watermarks_monotone",
     [ev("stream.page", state="admit", page=0, base=0, tasks=4),
      ev("stream.page", state="admit", page=1, base=3, tasks=4)],
     "page 1 starts at 3, expected page 1 at 4"),
    ("first_result_wins", [ev("task.dispatch", time=2.0, task=0),
                           ev("chunk.duplicate_dropped", indices=[0])],
     "was not the later one"),
    ("bytes_match_loads", [ev("key.load", key=1, bytes_shipped=10),
                           ev("run.end", tasks=0, bytes_shipped=20)],
     "reports 20 bytes shipped, the loads moved 10"),
    ("segments_followed", [ev("shm.map", segment="s", reused=False)] * 2,
     "segment s laid out 2 times across 0 reclaims"),
    ("keys_loaded_once", [ev("key.load", proc=0, key=1)] * 2,
     "key 1 loaded twice on worker 0"),
    ("nothing_after_failed_sync",
     [ev("fault.injected", fault="diskfail"), ev("checkpoint.write")],
     "checkpoint.write at t=0 after the journal failed"),
    ("one_job_per_worker", [Event("task.dispatch", t, 2.0, 1, "A", {"job": j})
                            for t, j in ((0.0, "a"), (1.0, "b"))],
     "worker 1 runs a and b at t=1"),
    ("quarantine_is_final", [ev("pool.quarantine", proc=1),
                             ev("task.dispatch", time=1.0, proc=1, task=0)],
     "slot 1 runs 'A' task 0 at t=1, after its quarantine at t=0"),
    ("one_end_per_job", [ev("job.admitted", job="a"), ev("job.done", job="a"),
                         ev("job.cancelled", job="a")], "job a ended 2 times"),
]


@pytest.mark.parametrize(
    "name, events, counterexample", BROKEN,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(BROKEN)],
)
def test_each_predicate_names_its_counterexample(name, events, counterexample):
    predicate = getattr(audit, name)
    assert predicate in audit.PREDICATES
    with pytest.raises(audit.Violation, match=re.escape(counterexample)):
        predicate(audit.Run(events))


def test_cli_exits_1_naming_the_first_violation(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    tracer = Tracer()
    tracer.events = [ev("alloc.decide", shares=[3], width=2)]
    path.write_text(tracer.to_jsonl())
    assert main(["audit", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("FAIL rations_fit: alloc.decide at t=0")
    assert all(line.startswith("ok ") for line in out[:-1])


def test_cli_refuses_an_artifact_that_does_not_exist(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert main(["audit", missing, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"no such artifact: {missing}"
    assert captured.out == ""


def test_a_stream_through_a_one_page_cache_follows_its_reclaims():
    """Equal pages through a cache that holds about one: each later
    page is laid out into the segment the last one left, by name."""
    from repro.runtime.config import PoolConfig

    tracer = Tracer()
    cfg = RunConfig(
        backend="mp", processors=2, stream_window=1,
        pool=PoolConfig(shm_cache_bytes=100_000), tracer=tracer,
    )
    # Pages of 100 rows of 100 floats: 80 KB each, shm-sized.
    api.run("stream", cfg, stream_records=100_000, page_records=10_000)
    run = audit.Run(tracer.events)
    assert any(e.attrs["reclaimed"] for e in run.of("shm.evict"))
    audit.check(run)
