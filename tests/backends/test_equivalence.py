"""Sim-vs-mp equivalence on deterministic workloads.

Both backends run the one scheduling session, a central chunk queue;
with ``cost_source="declared"`` it observes the declared chunk costs at
dispatch in the same order as the reference ``run_central``, so for a
single operation the simulator walks ``run_central``'s chunk sequence
to its makespan, and the mp backend the same chunk sequence.  Kernels
return integral floats, so value totals are exact under any summation
order and must match bit-for-bit across backends.
"""

import pytest

from repro.apps.kernels import fig1_ops, psirrfan_ops, reduction_ops
from repro.obs import Tracer
from repro.obs.events import CHUNK_ACQUIRE
from repro.runtime.backends import get_backend
from repro.runtime.config import POLICIES, RunConfig
from repro.runtime.schedulers import make_policy, run_central

MP_CFG = RunConfig(
    processors=2, backend="mp", cost_source="declared", mp_timeout=90.0
)
SIM_CFG = RunConfig(processors=2, backend="sim", cost_source="declared")


def _chunk_sizes(tracer):
    return [event.attrs["size"] for event in tracer.by_kind(CHUNK_ACQUIRE)]


@pytest.mark.parametrize("p", [2, 8, 64])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "op",
    [reduction_ops()[0], fig1_ops()[0]],
    ids=["reduction", "fig1-A"],
)
def test_sim_walks_run_central(op, policy, p):
    """One op on the simulator is ``run_central``: the same chunks, in
    the same sizes, to the same makespan."""
    tracer, reference = Tracer(), Tracer()
    cfg = SIM_CFG.with_(processors=p, policy=policy, tracer=tracer)
    sim = get_backend("sim").run_op(op, cfg)
    central = run_central(
        op.costs,
        p,
        make_policy(policy, min_chunk=cfg.min_chunk),
        cfg.machine_config(),
        tracer=reference,
    )
    assert sim.chunks == central.chunks
    assert _chunk_sizes(tracer) == _chunk_sizes(reference)
    assert sim.makespan == pytest.approx(central.makespan, rel=1e-9)
    assert sim.time_unit == "work-units"


def test_single_op_same_chunk_sequence_and_values():
    op = reduction_ops(leaves=64, length=300)[0]
    sim = get_backend("sim").run_op(op, SIM_CFG)
    mp = get_backend("mp").run_op(op, MP_CFG)
    assert sim.tasks == mp.tasks == 64
    assert sim.chunks == mp.chunks
    assert sim.value_total == mp.value_total


def test_fig1_totals_match_across_backends():
    sim = get_backend("sim").run_ops(fig1_ops(columns=48, elements=200), SIM_CFG)
    mp = get_backend("mp").run_ops(fig1_ops(columns=48, elements=200), MP_CFG)
    assert sim.tasks == mp.tasks
    assert sim.value_total == mp.value_total


def test_psirrfan_with_dependency_totals_match():
    ops = psirrfan_ops(columns=48, elements=150, post_elements=80)
    sim = get_backend("sim").run_ops(
        psirrfan_ops(columns=48, elements=150, post_elements=80), SIM_CFG
    )
    mp = get_backend("mp").run_ops(ops, MP_CFG)
    assert sim.tasks == mp.tasks
    assert sim.value_total == mp.value_total
    assert mp.per_op["BD"].tasks == len(ops[2].payloads)
    # The dependent op runs after A on both sides: the simulator honours
    # declared deps too (it used to run all three concurrently).
    assert sim.per_op["BD"].finish > sim.per_op["A"].finish
    assert mp.per_op["BD"].finish >= mp.per_op["A"].finish


def test_api_reports_identical_totals():
    import repro.api as api

    rs = api.run("fig1", SIM_CFG)
    rm = api.run("fig1", MP_CFG)
    assert rs.tasks == rm.tasks
    assert rs.value_total == rm.value_total


def test_graph_totals_match(tmp_path):
    import repro.api as api

    source = open("examples/fig1.f").read()
    program = api.compile(source)
    rs = api.run(program, SIM_CFG, tasks=32, elements=120)
    rm = api.run(program, MP_CFG, tasks=32, elements=120)
    assert rs.tasks == rm.tasks
    assert rs.value_total == rm.value_total
