"""RunConfig: the one knob surface, validated at construction."""

import dataclasses

import pytest

from repro.runtime.config import PoolConfig, RunConfig
from repro.runtime.machine import MachineConfig


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.processors == 8
    assert cfg.backend == "sim"
    assert cfg.policy == "taper"
    assert cfg.cost_source == "measured"


def test_frozen():
    cfg = RunConfig()
    with pytest.raises(Exception):
        cfg.processors = 4


INVALID = [
    {"processors": 0},
    {"processors": -3},
    {"backend": "cuda"},
    {"policy": "round-robin"},
    {"allocator": "random"},
    {"min_chunk": 0},
    {"sample_tasks": 0},
    {"sim_model": "hybrid"},
    {"cost_source": "psychic"},
    {"time_scale": 0.0},
    {"time_scale": -1.0},
    {"mp_start_method": "thread"},
    {"mp_timeout": 0.0},
]


@pytest.mark.parametrize("kwargs", INVALID)
def test_invalid_values_raise(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


@pytest.mark.parametrize(
    "cls, kwargs",
    [(RunConfig, kwargs) for kwargs in INVALID]
    + [
        (RunConfig, {"data_plane": "rdma"}),
        (RunConfig, {"batching": "maybe"}),
        (RunConfig, {"on_fault": "shrug"}),
        (RunConfig, {"max_retries": -1}),
        (RunConfig, {"mp_timeout": -1.0}),
        (RunConfig, {"retry_backoff": -0.1}),
        (RunConfig, {"speculation_factor": -1.0}),
        (RunConfig, {"speculation_factor": 0}),
        (RunConfig, {"wall_clock_limit": 0}),
        (RunConfig, {"stream_window": 0}),
        (RunConfig, {"stream_high_watermark": 0}),
        (RunConfig, {"stream_low_watermark": -1}),
        (PoolConfig, {"min_workers": 0}),
        (PoolConfig, {"max_workers": 0}),
        (PoolConfig, {"respawn_backoff": -1.0}),
        (PoolConfig, {"max_respawns": -1}),
        (PoolConfig, {"idle_timeout": 0}),
        (PoolConfig, {"ready_timeout": 0}),
        (PoolConfig, {"shm_cache_bytes": -1}),
    ],
)
def test_rejection_names_the_field(cls, kwargs):
    # One row per declared bound/choice: the generic metadata check must
    # reject what the hand-written ladder did, and say which knob.
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        cls(**kwargs)


def test_every_declared_check_has_a_rejection_row():
    rows = test_rejection_names_the_field.pytestmark[0].args[1]
    covered = {(cls, name) for cls, kwargs in rows for name in kwargs}
    declared = {
        (cls, f.name)
        for cls in (RunConfig, PoolConfig)
        for f in dataclasses.fields(cls)
        if f.metadata.keys() & {"choices", "ge", "gt"}
    }
    assert declared == covered


def test_none_passes_only_where_none_is_the_default():
    assert RunConfig(speculation_factor=None, stream_high_watermark=None)
    assert PoolConfig(idle_timeout=None, min_workers=None)
    with pytest.raises(TypeError):
        RunConfig(processors=None)


def test_cross_field_checks():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        RunConfig(resume=True)
    with pytest.raises(ValueError, match="stream_low_watermark"):
        RunConfig(stream_low_watermark=8, stream_high_watermark=8)
    with pytest.raises(ValueError, match="hosts"):
        RunConfig(hosts="nonsense")
    with pytest.raises(ValueError, match="max_workers"):
        PoolConfig(min_workers=4, max_workers=2)


def test_never_set_knobs_are_constants_not_fields():
    from repro.runtime.backends import mp, pool

    names = {
        f.name
        for cls in (RunConfig, PoolConfig)
        for f in dataclasses.fields(cls)
    }
    assert not names & {
        "drain_grace", "stream_decay", "respawn_window", "work_conserving"
    }
    for never_set in ("drain_grace", "work_conserving"):
        with pytest.raises(TypeError):
            RunConfig(**{never_set: 1})
    assert (mp.DRAIN_GRACE, mp.STREAM_DECAY, pool.RESPAWN_WINDOW) == (
        5.0, 0.05, 30.0
    )


def test_machine_processor_mismatch_raises():
    with pytest.raises(ValueError):
        RunConfig(processors=8, machine=MachineConfig(processors=4))


def test_machine_matching_processors_ok():
    machine = MachineConfig(processors=16)
    cfg = RunConfig(processors=16, machine=machine)
    assert cfg.machine_config() is machine


def test_machine_config_default_synthesized():
    cfg = RunConfig(processors=12)
    assert cfg.machine_config().processors == 12


def test_with_returns_new_validated_config():
    cfg = RunConfig()
    other = cfg.with_(processors=4, backend="mp")
    assert other.processors == 4
    assert other.backend == "mp"
    assert cfg.processors == 8  # original untouched
    with pytest.raises(ValueError):
        cfg.with_(policy="nope")


def test_policy_instance_resolves():
    from repro.runtime.taper import TaperPolicy

    assert isinstance(RunConfig(policy="taper").policy_instance(), TaperPolicy)


def test_tracer_excluded_from_equality():
    from repro.obs import Tracer

    assert RunConfig() == RunConfig(tracer=Tracer())
