"""Script entry: ``python3 benchmarks/spine/run.py --workload NAME ...``.

``BENCHMARK.json`` names this file so the command needs no
``PYTHONPATH``; ``python -m benchmarks.spine`` is the same program.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# The script's own directory must not be importable: ``trace.py`` here
# would shadow the stdlib module of the same name.
sys.path[:] = [ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]

from benchmarks.spine.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
