"""Reproduction of the paper's Figures 1-2: splitting B against A.

A (Figure 1's masked column loop) writes the columns of q selected by
``mask``; B post-processes all of q into ``output``.  Splitting B against
D_A yields B_I (columns with mask == 0, independent), B_D (columns with
mask <> 0, dependent), and B_M (the explicit merge of the two replicated
output arrays), exactly as Figure 2 shows.
"""

import pytest

from repro.analysis import analyze_unit
from repro.descriptors import DescriptorBuilder, interfere
from repro.lang import ast, parse_unit, print_stmts
from repro.split import split_computation

from .. import minif

FIG1 = """
program fig1
  integer mask(n), col, i, j, n
  real result(n), q(n, n), output(n, n)
  do col = 1, n where (mask(col) <> 0)
    do i = 1, n
      result(i) = reconstruct(q, i, col)
    end do
    do i = 1, n
      q(i, col) = result(i)
    end do
  end do
  do i = 1, n
    do j = 1, n
      output(j, i) = f(q(j, i))
    end do
  end do
end program
"""


@pytest.fixture(scope="module")
def split_b():
    unit = parse_unit(FIG1)
    analysis = analyze_unit(unit)
    builder = DescriptorBuilder(analysis)
    d_a = builder.region(unit.body[:1])
    result = split_computation(unit.body[1:], d_a, unit)
    return unit, d_a, result


def test_a_descriptor_masks_written_columns(split_b):
    unit, d_a, result = split_b
    q_writes = [t for t in d_a.writes if t.block == "q"]
    assert q_writes
    masked = [
        t
        for t in q_writes
        if t.pattern and any(d.mask is not None for d in t.pattern)
    ]
    assert masked, "A's q writes should be masked by mask[*] <> 0"


def test_b_splits_on_mask(split_b):
    unit, d_a, result = split_b
    assert not result.is_trivial
    independent_text = print_stmts(result.independent)
    assert "where (mask(i) == 0)" in independent_text
    dependent_text = print_stmts(result.dependent)
    assert "where (mask(i) <> 0)" in dependent_text


def test_b_independent_does_not_interfere(split_b):
    unit, d_a, result = split_b
    d_bi = result.context.descriptor_of(result.independent)
    assert not interfere(d_bi, d_a)


def test_output_replicated_with_explicit_merge(split_b):
    unit, d_a, result = split_b
    (primitive, loop_split), = result.report.loop_splits
    assert "output" in loop_split.renamed_arrays
    indep_name, dep_name = loop_split.renamed_arrays["output"]
    independent_text = print_stmts(result.independent)
    dependent_text = print_stmts(result.dependent)
    assert indep_name in independent_text
    assert dep_name in dependent_text
    merge_text = print_stmts(result.merge)
    assert "if (mask(" in merge_text
    assert indep_name in merge_text and dep_name in merge_text


def test_fig2_semantics_preserved(split_b):
    unit, d_a, result = split_b
    minif.check_split_order(minif.Case(FIG1, n=6), unit.body[1:], result)
