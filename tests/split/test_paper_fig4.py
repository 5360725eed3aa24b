"""Reproduction of the paper's Figure 4: the simple split example.

G:  do i = 1, n:  x(a, i) = x(a, i) + y(i)
H:  sum = 0
    do i = 1, n: do j = 1, n: sum = sum + x(j, i)

Split H against D_G.  The expected outcome (paper, Section 3.3.1):

* all of H is initially Bound (G writes column a of x, H reads all of x),
* the loop's iterations over j can be split at j = a,
* the independent piece accumulates into a replicated reduction variable
  over columns 1..a-1 and a+1..n,
* the dependent piece covers column a,
* the merge performs the final reduction step.
"""

from repro.analysis import analyze_unit
from repro.descriptors import DescriptorBuilder, interfere
from repro.lang import ast, parse_unit, print_stmts
from repro.split import SplitContext, split_computation

from .. import minif

FIG4 = """
program fig4
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


def _split_fig4():
    unit = parse_unit(FIG4)
    analysis = analyze_unit(unit)
    builder = DescriptorBuilder(analysis)
    d_g = builder.region(unit.body[:1])
    h_stmts = unit.body[1:]
    return unit, d_g, split_computation(h_stmts, d_g, unit)


def test_h_initially_bound():
    unit = parse_unit(FIG4)
    analysis = analyze_unit(unit)
    builder = DescriptorBuilder(analysis)
    d_g = builder.region(unit.body[:1])
    d_h = builder.region(unit.body[1:])
    assert interfere(d_g, d_h)


def test_split_produces_independent_piece():
    unit, d_g, result = _split_fig4()
    assert not result.is_trivial
    assert result.report.loop_splits, "expected a loop iteration split"


def test_independent_piece_does_not_interfere():
    unit, d_g, result = _split_fig4()
    independent_descriptor = result.context.descriptor_of(result.independent)
    # The replicated accumulator makes even the scalar side disjoint.
    assert not interfere(independent_descriptor, d_g)


def test_split_excludes_column_a():
    unit, d_g, result = _split_fig4()
    text = print_stmts(result.independent)
    assert "a - 1" in text and "a + 1" in text


def test_dependent_piece_covers_column_a():
    unit, d_g, result = _split_fig4()
    text = print_stmts(result.dependent)
    assert "do j = a, a" in text


def test_accumulator_replicated_and_merged():
    unit, d_g, result = _split_fig4()
    (primitive, loop_split), = result.report.loop_splits
    assert "sum" in loop_split.accumulators
    replica = loop_split.accumulators["sum"]
    independent_text = print_stmts(result.independent)
    assert f"{replica} = 0" in independent_text
    merge_text = print_stmts(result.merge)
    assert f"sum = sum + {replica}" in merge_text


def test_sum_init_stays_out_of_independent():
    unit, d_g, result = _split_fig4()
    independent_text = print_stmts(result.independent)
    assert "sum = 0" not in independent_text


def test_split_pieces_semantically_cover_original():
    unit, d_g, result = _split_fig4()
    minif.check_split_order(minif.Case(FIG4), unit.body[1:], result)
