"""Deeper pipelining (Section 3.3.2): depth 2 excludes two iterations.

"If deeper pipelining is desired, the descriptor for iteration i-2 can be
computed, etc."
"""

import random

import pytest

from repro.lang import parse_unit, print_stmts
from repro.split import pipeline_loop

from .. import minif

SOURCE = """
program deep
  integer mask(n), col, i, k, n
  real result(n), q(n, n)
  do col = 1, n where (mask(col) <> 0)
    do i = 1, n
      result(i) = 0
      do k = 1, n
        result(i) = result(i) + q(k, i)
      end do
    end do
    do i = 1, n
      q(i, col) = result(i)
    end do
  end do
end program
"""


@pytest.fixture(scope="module")
def depth2():
    unit = parse_unit(SOURCE)
    return unit, pipeline_loop(unit.body[0], unit, depth=2)


def test_depth2_succeeds(depth2):
    unit, result = depth2
    assert result.succeeded


def test_depth2_excludes_both_columns(depth2):
    unit, result = depth2
    text = print_stmts(result.independent)
    # A_I iterates 1..col-3, (empty col-1..col-2), col..n — both previous
    # columns excluded.
    assert "col - 3" in text
    assert "col, n" in text


def test_depth2_dependent_covers_both_columns(depth2):
    unit, result = depth2
    text = print_stmts(result.dependent)
    assert "col - 2, col - 2" in text
    assert "col - 1, col - 1" in text


def test_depth2_prev_descriptor_spans_two_iterations(depth2):
    unit, result = depth2
    rendered = str(result.prev_descriptor)
    assert "col - 1" in rendered
    assert "col - 2" in rendered


def test_depth2_semantics_preserved(depth2):
    unit, result = depth2
    minif.check_pipeline(minif.Case(SOURCE, n=6), result, random.Random(0))


def test_depth_zero_rejected():
    unit = parse_unit(SOURCE)
    with pytest.raises(ValueError):
        pipeline_loop(unit.body[0], unit, depth=0)
