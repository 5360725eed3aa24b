"""The compiler half against its oracle: drawn MiniF units, each run
through the four properties of ``tests/minif.py`` (descriptor soundness,
split order, pipelining, graph order).

Tier-1 draws at a fixed seed; ``--hypothesis-profile dst-long`` draws
fresh ones (``test_differential_long``).  Each ``@example`` is a program
a property once failed on, shrunk, or a template an earlier fixed test
checked.
"""

import random

import pytest
from hypothesis import HealthCheck, Phase, event, example, find, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_unit

from .. import minif
from ..dst import LONG, TIER1
from ..minif import Case

# A loop's write of its own index was in no descriptor: ``s = col`` had
# no edge from the loop, so it could read ``col`` before the loop ran.
LOOP_INDEX = """
program loopindex
  integer n, col
  real s, x(n)
  do col = 1, n
    x(col) = col
  end do
  s = col
end program
"""

# A ``where`` clause's reads were taken at the loop's scope: ``mask[i]``
# for the entry value of ``i``, not ``mask[1..n]``.
WHERE_READS = """
program wherereads
  integer n, i, mask(n)
  real x(n)
  do i = 1, n where (mask(i) <> 0)
    x(i) = 2
  end do
end program
"""

# ``y(col)`` promoted over the loop covered the read of all of ``y`` in
# the same iteration, though ``y(2..n)`` is read before it is written.
COVERED_READ = """
program coveredread
  integer n, col, i
  real t, y(n)
  do col = 1, n
    y(col) = 0.5
    do i = 1, n
      t = t + y(i)
    end do
  end do
end program
"""

# Pipelining privatised ``q``, written (never read) at a column that
# moves with the index: each iteration's column was lost but the last.
COLUMNS = """
program columns
  integer n, col, i
  real z(n), q(n, n), x(n)
  do col = 1, n
    do i = 1, n
      z(i) = x(i)
    end do
    do i = 1, n
      q(i, col) = z(i) + col
    end do
  end do
end program
"""

# ... and ``z``, written where ``idx`` says.
SCATTER = """
program scatter
  integer n, col, idx(n)
  real t, z(n)
  do col = 1, n
    z(idx(col)) = t + col
  end do
end program
"""

# An explicit merge copied whole rows and columns of the replicas into
# ``q``, zeros where the loop wrote nothing.
DIAGONAL = """
program diagonal
  integer n, col, i, mask(n)
  real q(n, n), t
  do col = 1, n where (mask(col) <> 0)
    do i = 1, n
      q(i, col) = t
    end do
  end do
  do col = 1, n where (mask(col) == 0)
    q(col, col) = t + col
  end do
end program
"""

# ``w`` was replicated for an explicit merge, so ``w(n, i)``, read before
# the loop writes it, read the empty replica.
REPLICA_READ = """
program replicaread
  integer n, i, j, col, mask(n)
  real q(n, n), w(n, n)
  do col = 1, n where (mask(col) <> 0)
    do i = 1, n
      q(i, col) = 2
    end do
  end do
  do i = 1, n
    do j = 1, n
      w(j, i) = q(j, i) + w(n, i)
    end do
  end do
end program
"""

# ``do col = a, a`` ran ``col = 1`` though the loop starts at 2.
OFF_RANGE = """
program offrange
  integer n, col, a
  real s, y(n)
  y(a) = 2
  do col = 2, n
    s = s + y(col)
  end do
end program
"""

# The second loop's independent part read ``z`` before the merge that
# makes it; and the split's replicas were shared by every iteration.
MERGED = """
program merged
  integer n, col, i
  real z(n), q(n, n)
  do col = 1, n
    do i = 1, n
      z(i) = q(n, i) + col
    end do
    do i = 1, n
      q(i, col) = z(i)
    end do
  end do
end program
"""

# The merge copied ``y4`` into ``y`` before the dependent piece it had
# displaced into C_M wrote ``y4``.
MERGE_ORDER = """
program mergeorder
  integer n, i, j, k
  real s, t, y(n), x(n)
  do k = 1, n
    do i = 1, n
      t = t + s
    end do
    do j = 1, n
      t = t * f(x(j))
      y(j) = x(k)
    end do
  end do
end program
"""

# C_I read row ``i`` of ``q``, which C_D then writes: run first, C_D
# changed what C_I reads.
ANTI = """
program anti
  integer n, i, col
  real t, q(n, n), w(n, n)
  do i = 1, n
    do col = 1, n
      t = t + q(i, col)
    end do
    q(i, 1) = w(i, 1)
  end do
end program
"""

# The dependent ``y(i) = t`` went to C_M, after the later ``y(i) =
# w(i, 1)`` it must precede.
REWRITE = """
program rewrite
  integer n, i, j, col, mask(n)
  real t, y(n), w(n, n)
  do i = 1, n
    do col = 1, n where (mask(col) == 0)
      t = t * f(w(i, col))
    end do
    do j = 1, n
      y(i) = t
    end do
    y(i) = w(i, 1)
  end do
end program
"""

# ``op2`` splits against ``op0``, and its parts had no edge from
# ``op1``: ``op2_i`` could read ``q`` before ``op1`` writes it.
SPLIT_EDGES = """
program drawn
  integer n, a, i, j, k, col, mask(n), idx(n)
  real s, t, x(n), y(n), z(n), q(n, n), w(n, n)
  do k = 1, n
    q(a, a) = x(a)
  end do
  do i = 1, n
    q(a, i) = w(i, i)
  end do
  do i = 1, n
    do j = 1, n
      s = s + q(j, i) * 2
    end do
  end do
end program
"""

# The templates ``test_split_properties.py`` also checks: a reduction split
# at a point (Figure 4's shape), a mask split (Figure 2's), and a prefix
# scan that splits into nothing independent.
POINT_REDUCTION = """
program t1
  integer i, j, a, n
  real x(n, n), y(n)
  real sum
  do i = 1, n
    x(a, i) = x(a, i) + y(i)
  end do
  sum = 0
  do i = 1, n
    do j = 1, n
      sum = sum + x(j, i)
    end do
  end do
end program
"""

MASK = """
program t2
  integer mask(n), col, i, j, n
  real q(n, n), output(n, n), result(n)
  do col = 1, n where (mask(col) <> 0)
    do i = 1, n
      q(i, col) = q(i, col) * 2 + col
    end do
  end do
  do i = 1, n
    do j = 1, n
      output(j, i) = q(j, i) + 1
    end do
  end do
end program
"""

PREFIX_SCAN = """
program t3
  integer i, n
  real x(n)
  real s
  do i = 1, n
    x(i) = x(i) + 1
  end do
  s = 0
  do i = 1, n
    s = s + x(i)
    x(i) = s
  end do
end program
"""

RECORDED = [
    Case(LOOP_INDEX, n=5, seed=2),
    Case(WHERE_READS, n=5, seed=1),
    Case(COVERED_READ, n=4),
    Case(COLUMNS, n=4),
    Case(SCATTER, n=5, seed=3),
    Case(DIAGONAL, n=4, seed=1),
    Case(REPLICA_READ, n=3),
    Case(OFF_RANGE, n=3, seed=2),
    Case(MERGED, n=5),
    Case(MERGE_ORDER, n=3),
    Case(ANTI, n=5),
    Case(REWRITE, n=3),
    Case(SPLIT_EDGES, n=6, seed=815),
    Case(POINT_REDUCTION, n=6, seed=7),
    Case(MASK, n=5, seed=3),
    Case(PREFIX_SCAN, n=4, seed=5),
]


def _recorded(test):
    for case in reversed(RECORDED):
        test = example(case=case, rnd=random.Random(0))(test)
    return test


@TIER1
@_recorded
@given(case=minif.cases(), rnd=st.randoms(use_true_random=False))
def test_differential(case, rnd):
    compiled = minif.check_all(case, rnd)
    for label in minif.constructs(case, compiled):
        event(label)


def test_differential_long():
    if settings.get_current_profile_name() != LONG:
        pytest.skip(f"long profile only: --hypothesis-profile {LONG}")
    # Decorated here, not at import: ``given`` binds the settings in
    # force when it is applied, and the profile loads after import.
    given(case=minif.cases(), rnd=st.randoms(use_true_random=False))(
        test_differential.hypothesis.inner_test
    )()


@pytest.mark.parametrize("label", [
    "do loop", "where loop", "1-D array", "2-D array", "sum reduction",
    "product reduction", "subscripted subscript", "two-part body", "call",
    "index read after its loop", "non-trivial split",
    "pipeline_loop succeeded",
])
def test_draws_reach(label):
    """Some draw exercises each construct and outcome."""
    def reaches(case):
        compiled = None
        if label in ("non-trivial split", "pipeline_loop succeeded"):
            compiled = compile_unit(case.unit)
        return label in minif.constructs(case, compiled)

    find(minif.cases(), reaches,
         settings=settings(max_examples=200, derandomize=True, database=None,
                           phases=[Phase.generate],
                           suppress_health_check=list(HealthCheck)))

