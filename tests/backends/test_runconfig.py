"""RunConfig: the one knob surface, validated at construction."""

import dataclasses

import pytest

from repro.runtime.config import PoolConfig, RunConfig
from repro.runtime.machine import MachineConfig
from repro.runtime.sampling import DEFAULT_SAMPLE


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


#: Rows are ids by position (``kwargs<n>``): a deleted field's row is
#: replaced in place, never dropped from the middle.
INVALID = [
    {"processors": 0},
    {"processors": -3},
    {"backend": "cuda"},
    {"policy": "round-robin"},
    {"allocator": "random"},
    {"min_chunk": 0},
    {"batching": "on"},  # the choice went: auto batches every chunk >= 2
    {"min_chunk": -1},
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
        (RunConfig, {"batching": "maybe"}),
        (RunConfig, {"on_fault": "shrug"}),
        (RunConfig, {"max_retries": -1}),
        (RunConfig, {"mp_timeout": -1.0}),
        (RunConfig, {"retry_backoff": -0.1}),
        (RunConfig, {"speculation_factor": -1.0}),
        (RunConfig, {"speculation_factor": 0}),
        (RunConfig, {"wall_clock_limit": 0}),
        (RunConfig, {"stream_window": 0}),
        (RunConfig, {"stream_window": -1}),
        (RunConfig, {"wall_clock_limit": -1.0}),
        (RunConfig, {"time_scale": -0.5}),
        (PoolConfig, {"min_workers": 0}),
        (PoolConfig, {"max_workers": 0}),
        (PoolConfig, {"respawn_backoff": -1.0}),
        (PoolConfig, {"max_respawns": -1}),
        (PoolConfig, {"idle_timeout": 0}),
        (PoolConfig, {"idle_timeout": -1.0}),
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
    assert RunConfig(speculation_factor=None, wall_clock_limit=None)
    assert PoolConfig(idle_timeout=None, min_workers=None)
    with pytest.raises(TypeError):
        RunConfig(processors=None)


def test_cross_field_checks():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        RunConfig(resume=True)
    with pytest.raises(ValueError, match="hosts"):
        RunConfig(hosts="nonsense")
    with pytest.raises(ValueError, match="1-65535"):
        RunConfig(hosts="127.0.0.1:73616")  # getaddrinfo would dial 8080
    with pytest.raises(ValueError, match="max_workers"):
        PoolConfig(min_workers=4, max_workers=2)


#: The whole knob surface, as ``FROZEN_FLAGS`` is the CLI's: a new
#: field is a visible edit here, with the reason it cannot be derived.
RUN_FIELDS = (
    "processors", "backend", "policy", "allocator", "min_chunk",
    "machine", "cost_source", "time_scale", "batching",
    "mp_start_method", "mp_timeout", "on_fault", "max_retries",
    "retry_backoff", "fault_plan", "checkpoint_dir", "resume",
    "run_target", "speculation_factor", "wall_clock_limit",
    "stream_window", "pool", "hosts", "tracer", "seed",
)
POOL_FIELDS = (
    "min_workers", "max_workers", "respawn_backoff", "max_respawns",
    "idle_timeout", "shm_cache_bytes",
)


def test_the_config_surface_is_pinned():
    for cls, names in ((RunConfig, RUN_FIELDS), (PoolConfig, POOL_FIELDS)):
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert (len(RUN_FIELDS), len(POOL_FIELDS)) == (25, 6)


def test_never_set_knobs_are_constants_not_fields():
    from repro.runtime.backends import mp, pool

    names = {
        f.name
        for cls in (RunConfig, PoolConfig)
        for f in dataclasses.fields(cls)
    }
    assert not names & {
        "drain_grace", "stream_decay", "respawn_window", "work_conserving",
        "sample_tasks", "ready_timeout",
    }
    for never_set in ("drain_grace", "work_conserving", "sample_tasks"):
        with pytest.raises(TypeError):
            RunConfig(**{never_set: 1})
    with pytest.raises(TypeError):
        PoolConfig(ready_timeout=1.0)
    assert (mp.DRAIN_GRACE, mp.STREAM_DECAY, pool.RESPAWN_WINDOW) == (
        5.0, 0.05, 30.0
    )
    assert (DEFAULT_SAMPLE, pool.READY_TIMEOUT) == (32, 30.0)


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
