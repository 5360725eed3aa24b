"""Deterministic simulation testing: the real ``_MpSession`` on a
``SimFleet`` that delivers reports in any order a real fleet could.

Hypothesis draws a target, a config and a ``FaultPlan``, and the fleet
draws inside ``recv`` how each report arrives.  A ``coordkill`` or a
failed journal call resumes from the journal on a fresh fleet.  Every
session ends in ``audit.check`` over its events and journal, and the
run in the exact total, less what it quarantined.  The fleet, the
targets and the profiles are ``tests/dst.py``'s.
"""

import functools
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, audit
from repro.runtime.backends.mp import _MpSession
from repro.runtime.checkpoint import JournalFailedError, read_journal
from repro.runtime.config import RunConfig
from repro.runtime.faults import (
    DISK_ERRORS,
    CoordinatorKilled,
    FaultPlan,
    FaultSpec,
)

from ..dst import LONG, TIER1, AdversarialFleet, chooser, target


@functools.lru_cache(maxsize=None)
def cases(p):
    """A case on ``p`` workers: a target, a config, a fault plan."""
    at = st.integers(0, 4)
    anyone = st.one_of(st.just(-1), st.integers(0, p - 1))
    stall = st.sampled_from([20.0, 200.0, 1000.0])
    # Each term of the plan is drawn or left out on its own.
    terms = [
        st.builds(FaultSpec, st.just("raise"), anyone, at, st.integers(1, 3)),
        st.builds(FaultSpec, st.just("slow"), anyone, at, delay=stall),
        st.builds(FaultSpec, st.just("delay"), anyone, at, delay=stall),
        st.builds(FaultSpec, st.just("diskfail"), at_chunk=st.integers(0, 8),
                  call=st.sampled_from(["write", "fsync"]),
                  errno=st.sampled_from(sorted(DISK_ERRORS.values()))),
        st.builds(FaultSpec, st.just("coordkill"),
                  at_chunk=st.integers(0, 16)),
        st.builds(FaultSpec, st.just("kill"), anyone, at, st.integers(1, 3)),
    ]
    return st.fixed_dictionaries({
        "target": st.sampled_from(["reduction", "fig1", "examples/fig1.f",
                                   "stream"]),
        "p": st.just(p),
        "cost_source": st.sampled_from(["declared", "measured"]),
        "batching": st.sampled_from(["auto", "off"]),
        "speculation_factor": st.sampled_from([None, 1.5, 3.0]),
        "max_retries": st.integers(0, 2),
        "stream_window": st.integers(1, 3),
        "checkpoint": st.booleans(),
        "faults": st.tuples(*(st.none() | term for term in terms)).map(
            lambda specs: [spec for spec in specs if spec is not None]
        ),
    })


# One worker leaves nothing to choose: no tie, no idle helper.
CASES = st.integers(2, 8).flatmap(cases)


def check_case(case, data):
    ops, deps, values = target(case["target"])
    choose = chooser(data)
    plan = FaultPlan(tuple(case["faults"]))
    with tempfile.TemporaryDirectory() as scratch:
        cfg = RunConfig(
            processors=case["p"], backend="mp", fault_plan=plan,
            checkpoint_dir=scratch if case["checkpoint"] else None,
            **{key: case[key] for key in (
                "cost_source", "batching", "speculation_factor",
                "max_retries", "stream_window")},
        )
        cfg = cfg.with_(machine=cfg.machine_config())
        while True:
            tracer = Tracer()
            fleet = AdversarialFleet(cfg.processors, cfg.machine, choose)
            session = _MpSession(ops, deps, cfg.with_(tracer=tracer), fleet)
            try:
                result = session.run()
            except (CoordinatorKilled, JournalFailedError):
                result = None
            journals = {scratch: read_journal(scratch)} if (
                cfg.checkpoint_dir) else {}
            audit.check(audit.Run(tracer.events, journals))
            if result is not None:
                break
            # The coordinator died: resume what its journal kept, under
            # the plan's other terms.
            plan = FaultPlan(tuple(spec for spec in plan.specs
                                   if spec.kind not in ("coordkill", "diskfail")))
            cfg = cfg.with_(fault_plan=plan, resume=bool(cfg.checkpoint_dir))
    lost = result.fault_report.quarantined
    assert not lost or "raise" in {s.kind for s in plan.specs}
    assert result.value_total == sum(
        value for label, task_values in values.items()
        for index, value in enumerate(task_values)
        if (label, index) not in lost
    )
    return result


#: What a regression example leaves at its first draw.
FIRST = dict(cost_source="declared", batching="auto", max_retries=0,
             speculation_factor=None, stream_window=1, checkpoint=False)


@TIER1
# Found at HEAD: tasks quarantined by a failure reported after its
# worker's death, and their rerun's results dropped as duplicates.
@example(case=dict(FIRST, target="reduction", p=2,
                   faults=[FaultSpec("raise")] * 2), data=("lost", 1))
# Found at HEAD: a dead worker's late result for tasks its rerun's raise
# had quarantined, dropped as a duplicate.
@example(case=dict(FIRST, target="examples/fig1.f", p=3,
                   faults=[FaultSpec("raise", at_chunk=2, times=2),
                           FaultSpec("coordkill", at_chunk=5)]),
         data=("lost", 2))
# Found by the long profile: the counted copy's last record ended one
# ulp after its report arrived, so a lost worker's copy arriving at that
# instant seemed to be dropped before the counted one finished.
@example(case=dict(FIRST, target="stream", p=5,
                   faults=[FaultSpec("slow", delay=200.0)]),
         data=(0, "now", 0, "now", 0, "now", "now", "now", 0, "now", 0,
               "now", 0, "now", "now", "now", 0, "late", 2, 0, "now", 0,
               "lost", 1))
# Every worker lost once: the fleet empties, and heals.
@example(case=dict(FIRST, target="reduction", p=2, faults=[]),
         data=("lost", 1, "lost", 1))
@given(case=CASES, data=st.data())
def test_dst(case, data):
    check_case(case, data)


def test_a_failure_reported_after_death_is_charged_once():
    # Both first chunks raise, with no retry.  Worker 0's (tasks 0-127)
    # is quarantined.  Worker 1 is lost before its failure report
    # arrives: the reclaim requeued tasks 128-191, and the late report
    # must not charge (so quarantine) them again while they rerun.
    result = check_case(dict(FIRST, target="reduction", p=2,
                             faults=[FaultSpec("raise")] * 2), ("lost", 1))
    quarantined = [index for _op, index in result.fault_report.quarantined]
    assert quarantined == list(range(128))


def test_dst_long():
    if settings.get_current_profile_name() != LONG:
        pytest.skip(f"long profile only: --hypothesis-profile {LONG}")
    # Decorated here, not at import: ``given`` binds the settings in
    # force when it is applied, and the profile loads after import.
    given(case=CASES, data=st.data())(test_dst.hypothesis.inner_test)()
