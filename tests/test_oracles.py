"""The chunked truth-table engine against per-assignment evaluation,
on both sides of the block boundary."""

import numpy as np
import pytest

from tseitinkit import families as fam
from tseitinkit.cnf import cnf_truth_table
from tseitinkit.compiler import pipeline
from tseitinkit.nnf import CircuitBuilder, evaluate, truth_table as nnf_truth_table
from tseitinkit.oracles import BLOCK_BITS, VAR_CAP, truth_table
from tseitinkit.tseitin import TseitinFormula, to_cnf, truth_table as tseitin_truth_table, unit_charge


def boundary_masks(m: int) -> list[int]:
    """Assignments next to every block boundary, and the first and last."""
    step = 1 << BLOCK_BITS
    out = set(range(min(64, 1 << m))) | set(range(max(0, (1 << m) - 64), 1 << m))
    for edge in range(step, 1 << m, step):
        out |= set(range(edge - 32, edge + 32))
    return sorted(out)


@pytest.mark.parametrize("m", [BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1])
def test_engine_matches_pointwise(m):
    g = fam.cycle(m)
    zero = TseitinFormula(g, (0,) * m)
    _, d, _ = pipeline(g, unit_charge(m, 0), zero.charge, desk_cap=0)
    cnf = to_cnf(zero)
    tables = (nnf_truth_table(d), tseitin_truth_table(zero), cnf_truth_table(cnf))
    for table in tables:
        assert table.shape == (1 << m,) and table.dtype == bool
    for mask in boundary_masks(m):
        want = zero.satisfies(mask)
        assert (tables[0][mask], tables[1][mask], tables[2][mask]) == (want, want, want), mask
        assert evaluate(d, mask) == want and cnf.satisfies(mask) == want, mask
    assert (tables[0] == tables[1]).all() and (tables[1] == tables[2]).all()
    assert int(tables[1].sum()) == 2  # a cycle with zero charge: all 0 or all 1


def test_constant_column_fills_the_table():
    b = CircuitBuilder(BLOCK_BITS + 1)
    d = b.build(b.const(1))
    assert nnf_truth_table(d).all()


def test_cap():
    with pytest.raises(ValueError):
        truth_table(VAR_CAP + 1, lambda block: True)
    assert truth_table(0, lambda block: block == 0).tolist() == [True]
    assert np.array_equal(truth_table(3, lambda block: block % 3 == 0), [True, False, False, True, False, False, True, False])
