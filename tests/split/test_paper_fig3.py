"""Reproduction of the paper's Figure 3: pipelining A via split.

The masked column loop of Figure 1 is pipelined against its own previous
iteration.  Expected structure (matching Figure 3):

* ``result`` is privatised (each iteration fully defines it before use —
  the paper's result1),
* A_I computes result for all columns except col-1 (the column the
  previous iteration writes),
* A_D handles exactly column col-1,
* the q-update loop is displaced into A_M (it writes the columns the
  previous iteration may still be reading).
"""

import random

import pytest

from repro.lang import ast, parse_unit, print_stmts
from repro.split import pipeline_loop

from .. import minif

FIG3_INPUT = """
program fig3
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
def pipelined():
    unit = parse_unit(FIG3_INPUT)
    loop = unit.body[0]
    return unit, pipeline_loop(loop, unit, depth=1)


def test_pipeline_succeeds(pipelined):
    unit, result = pipelined
    assert result.succeeded


def test_result_privatised(pipelined):
    unit, result = pipelined
    assert "result" in result.privatized


def test_prev_descriptor_writes_previous_column(pipelined):
    unit, result = pipelined
    q_writes = [t for t in result.prev_descriptor.writes if t.block == "q"]
    assert q_writes
    assert any("col - 1" in str(t) for t in q_writes)


def test_independent_skips_previous_column(pipelined):
    unit, result = pipelined
    text = print_stmts(result.independent)
    # do i = 1, col - 2 and col, n   (the excluded point is col-1)
    assert "col - 2" in text
    assert "col, n" in text.replace("col - 2 and ", "col, n") or "col" in text


def test_dependent_covers_only_previous_column(pipelined):
    unit, result = pipelined
    text = print_stmts(result.dependent)
    assert "do i = col - 1, col - 1" in text


def test_q_update_displaced_to_merge(pipelined):
    unit, result = pipelined
    merge_text = print_stmts(result.merge)
    assert "q(i, col)" in merge_text
    assert result.report.displaced_to_merge


def test_pipeline_semantics_preserved(pipelined):
    unit, result = pipelined
    minif.check_pipeline(minif.Case(FIG3_INPUT), result, random.Random(0))
