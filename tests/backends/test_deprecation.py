"""Deprecation surface after the Kernel API redesign.

The PEP 562 package-level shims for the pre-``RunConfig`` entry points
served their one release and are gone: the old names now raise
``AttributeError`` at the package boundary while remaining importable,
undeprecated, from their home submodules.  No deprecation is live: the
bare-callable kernel adapter is gone too (``RealOp(kernel=function)``
is a ``TypeError``; ``test_batching.py`` holds that case).
"""

import warnings

import pytest

import repro.runtime
from repro import Kernel
from repro.runtime.task import RealOp


def _double(payload):
    return float(payload * 2)


@pytest.mark.parametrize(
    "name",
    ["run_distributed", "run_concurrent_ops", "run_pipelined", "GraphExecutor"],
)
def test_package_level_shims_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(repro.runtime, name)


def test_home_submodule_import_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.runtime.distributed import run_distributed  # noqa: F401
        from repro.runtime.executor import (  # noqa: F401
            run_concurrent_ops,
            run_pipelined,
        )


def test_home_submodule_entry_point_still_functional():
    from repro.runtime.distributed import run_distributed

    result = run_distributed([5.0] * 32, 4)
    assert result.makespan > 0


def test_kernel_declaration_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        op = RealOp(
            name="new", kernel=Kernel(fn=_double), payloads=[1, 2, 3]
        )
    assert op.kernel.name == "_double"


def test_new_names_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert repro.runtime.RunConfig is not None
        assert repro.runtime.MachineConfig is not None
        assert repro.runtime.Kernel is Kernel


def test_dir_no_longer_lists_dropped_names():
    listing = dir(repro.runtime)
    assert "run_distributed" not in listing
    assert "GraphExecutor" not in listing
    assert "Kernel" in listing


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.runtime.definitely_not_a_thing
