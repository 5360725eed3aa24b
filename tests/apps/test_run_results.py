"""AppRunResult accounting tests."""

from repro.apps import EmuWorkload
from repro.apps.workloads import AppRunResult


def test_result_speedup_and_efficiency():
    result = AppRunResult(
        name="x", mode="taper", processors=10, makespan=50.0,
        total_work=400.0, steps=2,
    )
    assert result.speedup == 8.0
    assert result.efficiency == 0.8


def test_result_degenerate_makespan():
    result = AppRunResult(
        name="x", mode="taper", processors=4, makespan=0.0,
        total_work=0.0, steps=0,
    )
    assert result.speedup == 4.0


def test_more_steps_more_work():
    short = EmuWorkload(steps=1).run(64, "taper")
    long = EmuWorkload(steps=3).run(64, "taper")
    assert long.total_work > short.total_work
    assert long.steps == 3
