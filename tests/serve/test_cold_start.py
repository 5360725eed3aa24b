"""What a resident process has loaded when its worker pool forks.

``repro serve`` and ``repro hostagent`` only execute graphs, so they must
not pay for the compiler half at start-up; and they load the job path
(``repro.api``, the kernels) before the fork, so that no worker imports
it again on its first ``load``.  Each command runs in a subprocess whose
``WorkerPool.start`` prints ``sys.modules`` and exits: nothing forks.
"""

import json

import pytest

from .. import procs

COMPILER_HALF = (
    "repro.compiler",
    "repro.lang",
    "repro.analysis",
    "repro.descriptors",
    "repro.split",
    "repro.delirium",
)

SNAPSHOT = """
import json, os, runpy, sys
from repro.runtime.backends.pool import WorkerPool

def start(self):
    print(json.dumps(sorted(sys.modules)), flush=True)
    os._exit(0)

WorkerPool.start = start
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def modules_at_fork(*argv):
    status, stdout, stderr = procs.run("-c", SNAPSHOT, *argv, timeout=60)
    assert status == 0, stderr
    return set(json.loads(stdout))


@pytest.mark.parametrize(
    "argv",
    [
        ("serve", "--procs", "2"),
        ("hostagent", "-w", "2", "--port", "0"),
    ],
    ids=["serve", "hostagent"],
)
def test_pool_forks_warm_without_the_compiler(tmp_path, argv):
    if argv[0] == "serve":
        argv += ("--state-dir", str(tmp_path / "state"))
    loaded = modules_at_fork(*argv)
    packages = {".".join(name.split(".")[:2]) for name in loaded}
    assert not packages & set(COMPILER_HALF)
    assert {"repro.api", "repro.apps.kernels"} <= loaded
