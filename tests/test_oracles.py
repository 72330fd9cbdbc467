"""The packed truth-table engine against the per-assignment engine it
replaced and against pointwise evaluation, on both sides of the word and
the block boundary and with variables folded to constants above it; and
the block-by-block comparison against comparing whole tables."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lemmas import evaluate, models, nnf_truth_table, reference_cnf, reference_truth_table, satisfies, tseitin_truth_table, violated_at
from tseitinkit import families as fam
from tseitinkit.compiler import equivalent, pipeline
from tseitinkit.graphs import Graph
from tseitinkit.nnf import AND, CONST, LIT, OR, CircuitBuilder, Gate, NnfCircuit, propagate_constants, root_value
from tseitinkit.oracles import BLOCK_BITS, VAR_CAP, parity, tables_equal, truth_table
from tseitinkit.tseitin import DEGREE_CAP, TseitinFormula, to_cnf, unit_charge


# --- the reference: one bool per assignment, in uint32 arrays of masks --------
#
# `reference_truth_table` and `reference_cnf` live in `lemmas`, where the
# CNF tests also use them.


def reference_gate_values(d: NnfCircuit, block) -> list:
    vals = []
    for g in d.gates:
        if g.kind == LIT:
            bit = block & (1 << g.var)
            vals.append(bit != 0 if g.positive else bit == 0)
        elif g.kind == CONST:
            vals.append(bool(g.a))
        elif g.kind == AND:
            a, b = vals[g.a], vals[g.b]
            vals.append(b if a is True else a if b is True else a & b)
        else:
            vals.append(vals[g.a] | vals[g.b])
    return vals


def reference_parity(block, edge_ids):
    par = 0
    for e in edge_ids:
        par ^= (block >> e) & 1
    return par


def reference_tseitin(t: TseitinFormula, block):
    ok = True
    for v in range(t.graph.n):
        ok = ok & (reference_parity(block, t.graph.incident[v]) == t.charge[v])
    return ok


def sample_masks(m: int) -> list[int]:
    """Every assignment up to 2^8 of them; else the first and last words,
    the assignments on both sides of the first 15 word boundaries, and
    those next to every block boundary."""
    if m <= 8:
        return list(range(1 << m))
    out = set(range(64)) | set(range((1 << m) - 64, 1 << m))
    out |= {edge + d for edge in range(64, 1 << min(m, 10), 64) for d in (-1, 0)}
    step = 1 << BLOCK_BITS
    for edge in range(step, 1 << m, step):
        out |= set(range(edge - 32, edge + 32))
    return sorted(out)


# less than one word, one word, one word and a bit, the block boundary, and
# two variables folded to constants
WIDTHS = [0, 1, 5, 6, 7, BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1, BLOCK_BITS + 2]


@st.composite
def circuits(draw):
    """A random circuit whose first internal gates put CONST 0 and CONST 1
    under both an AND and an OR gate."""
    num_vars = draw(st.sampled_from(WIDTHS))
    b = CircuitBuilder(num_vars)
    nodes = [b.const(0), b.const(1)]
    if num_vars:
        for _ in range(draw(st.integers(1, 6))):
            nodes.append(b.literal(draw(st.integers(0, num_vars - 1)), draw(st.booleans())))
    for gate in (b.gate_and, b.gate_or):
        for const in nodes[:2]:
            nodes.append(gate(const, draw(st.sampled_from(nodes))))
    for _ in range(draw(st.integers(0, 12))):
        gate = draw(st.sampled_from((b.gate_and, b.gate_or)))
        nodes.append(gate(draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))))
    return b.build(nodes[-1])


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(circuits())
    def test_every_gate(self, d):
        masks = sample_masks(d.num_vars)
        for i in range(len(d.gates)):
            sub = NnfCircuit(d.gates, i, d.num_vars)
            table = nnf_truth_table(sub)
            assert table.shape == (1 << d.num_vars,) and table.dtype == bool
            want = reference_truth_table(d.num_vars, lambda block: reference_gate_values(sub, block)[i])
            assert np.array_equal(table, want), i
            assert [evaluate(sub, mask) for mask in masks] == table[masks].tolist(), i

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(WIDTHS[1:]), st.data())
    def test_tseitin_and_cnf(self, m, data):
        lo = next(n for n in range(2, 99) if n * (n - 1) // 2 >= m)
        n = data.draw(st.integers(lo, lo + 4))
        pairs = data.draw(st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)]))
        degree, edges = [0] * n, []
        for u, v in pairs:
            if len(edges) < m and max(degree[u], degree[v]) < DEGREE_CAP:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
        assume(len(edges) == m)
        t = TseitinFormula(Graph(n, edges), tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
        cnf = to_cnf(t)
        table = tseitin_truth_table(t)
        assert np.array_equal(table, reference_truth_table(m, lambda block: reference_tseitin(t, block)))
        assert np.array_equal(reference_truth_table(m, lambda block: reference_cnf(cnf, block)), table)
        masks = sample_masks(m)
        assert [satisfies(t, mask) for mask in masks] == table[masks].tolist()
        for mask in masks[:8]:
            violated = [violated_at(t, mask, v) for v in range(n)]
            assert any(violated) != bool(table[mask])

    def test_isolated_charged_vertex(self):
        t = TseitinFormula(Graph(3, [(0, 1)]), (0, 0, 1))
        table = tseitin_truth_table(t)
        assert not table.any() and table.shape == (2,)
        assert np.array_equal(table, reference_truth_table(1, lambda block: reference_tseitin(t, block)))
        assert not satisfies(t, 0) and violated_at(t, 0, 2) and not violated_at(t, 0, 1)


@pytest.mark.parametrize("m", [BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1])
def test_engine_matches_pointwise(m):
    g = fam.cycle(m)
    zero = TseitinFormula(g, (0,) * m)
    _, d, _ = pipeline(g, unit_charge(m, 0), zero.charge, desk_cap=0)
    cnf = to_cnf(zero)
    tables = (nnf_truth_table(d), tseitin_truth_table(zero), reference_truth_table(m, lambda block: reference_cnf(cnf, block)))
    for table in tables:
        assert table.shape == (1 << m,) and table.dtype == bool
    for mask in sample_masks(m):
        want = satisfies(zero, mask)
        assert (tables[0][mask], tables[1][mask], tables[2][mask]) == (want, want, want), mask
        assert evaluate(d, mask) == want, mask
    assert (tables[0] == tables[1]).all() and (tables[1] == tables[2]).all()
    assert int(tables[1].sum()) == 2  # a cycle with zero charge: all 0 or all 1


def test_constant_column_fills_the_table():
    """A constant-true root, and OR with a constant-true child, are true on
    every assignment, not only on those whose bit 0 is set."""
    b = CircuitBuilder(BLOCK_BITS + 1)
    d = b.build(b.const(1))
    assert nnf_truth_table(d).all()
    d = NnfCircuit((Gate(LIT, var=3), Gate(CONST, a=1), Gate(OR, a=0, b=1), Gate(AND, a=1, b=2)), 3, 7)
    assert nnf_truth_table(d).all()


def test_cap():
    with pytest.raises(ValueError):
        truth_table(VAR_CAP + 1, lambda x: True)
    assert truth_table(0, lambda x: True).tolist() == [True]

    def multiple_of_3(x):  # 0, 3 and 6 on three variables: 000, 011, 110
        b0, b1, b2 = x(0), x(1), x(2)
        return (~b0 & ~b1 & ~b2) | (b0 & b1 & ~b2) | (~b0 & b1 & b2)

    assert np.array_equal(truth_table(3, multiple_of_3), [True, False, False, True, False, False, True, False])


def test_parity_over_folded_variables():
    """Parity over two folded variables, alone and with a packed one, and
    its negation through the circuit's literals."""
    m = BLOCK_BITS + 2
    high = [BLOCK_BITS, BLOCK_BITS + 1]
    for edges in (high, [0] + high, [BLOCK_BITS - 1, BLOCK_BITS + 1]):
        for charge in (0, 1):
            want = reference_truth_table(m, lambda block: reference_parity(block, edges) == charge)
            assert np.array_equal(truth_table(m, lambda x: parity(x, edges, charge)), want), (edges, charge)
    b = CircuitBuilder(m)
    d = b.build(b.gate_and(b.literal(BLOCK_BITS, False), b.literal(BLOCK_BITS + 1, False)))
    assert models(nnf_truth_table(d)) == list(range(1 << BLOCK_BITS))


# --- the block-by-block comparison ------------------------------------------


def columns(*circuits):
    return [lambda x, d=d: root_value(d, x) for d in circuits]


def tables_agree(a: NnfCircuit, b: NnfCircuit) -> bool:
    return bool((nnf_truth_table(a) == nnf_truth_table(b)).all())


class TestTablesEqual:
    @settings(max_examples=40, deadline=None)
    @given(circuits(), st.data())
    def test_agrees_with_whole_tables(self, d, data):
        """On pairs of gates of one random circuit (equal pairs come from
        the constants and from a gate paired with itself) and on the
        circuit against its constant-propagated copy."""
        gates = st.integers(0, len(d.gates) - 1)
        pairs = [(NnfCircuit(d.gates, i, d.num_vars), NnfCircuit(d.gates, j, d.num_vars))
                 for i, j in data.draw(st.lists(st.tuples(gates, gates), min_size=1, max_size=4))]
        folded = propagate_constants(d)
        pairs.append((d, folded))
        for a, b in pairs:
            assert tables_equal(d.num_vars, *columns(a, b)) == tables_agree(a, b)
        assert tables_equal(d.num_vars, *columns(d, folded))

    def test_differs_in_the_last_assignment_only(self):
        m = BLOCK_BITS + 2
        b = CircuitBuilder(m)
        every = b.literal(0, True)
        for v in range(1, m):
            every = b.gate_and(every, b.literal(v, True))
        a, never = b.build(every), b.build(b.const(0))
        assert models(nnf_truth_table(a)) == [(1 << m) - 1]
        assert not tables_equal(m, *columns(a, never)) and not tables_equal(m, *columns(never, a))

    def test_differs_only_under_a_gate_over_folded_variables(self):
        """x0 OR (x16 AND NOT x17) against x0: they differ in block 1 only,
        through a gate that folds to a bool in every block."""
        m = BLOCK_BITS + 2
        b = CircuitBuilder(m)
        x0 = b.literal(0, True)
        folded = b.gate_and(b.literal(BLOCK_BITS, True), b.literal(BLOCK_BITS + 1, False))
        a, plain = b.build(b.gate_or(x0, folded)), b.build(x0)
        differ = np.nonzero(nnf_truth_table(a) != nnf_truth_table(plain))[0]
        assert {int(i) >> BLOCK_BITS for i in differ} == {1}
        assert not tables_equal(m, *columns(a, plain))
        same = b.build(b.gate_or(x0, b.gate_and(folded, b.const(0))))
        assert tables_equal(m, *columns(same, plain))

    @pytest.mark.parametrize("m", [0, 3, BLOCK_BITS, BLOCK_BITS + 2])
    def test_constant_and_array_blocks(self, m):
        """A constant root against circuits whose blocks are arrays, bools
        or both, with the same or a different value."""
        b = CircuitBuilder(m)
        one, zero = b.build(b.const(1)), b.build(b.const(0))
        assert tables_equal(m, *columns(one, one)) and not tables_equal(m, *columns(one, zero))
        for v in range(m):
            x, not_x = b.literal(v, True), b.literal(v, False)
            taut, contra = b.build(b.gate_or(x, not_x)), b.build(b.gate_and(x, not_x))
            lit = b.build(x)
            assert tables_equal(m, *columns(taut, one)) and tables_equal(m, *columns(one, taut))
            assert tables_equal(m, *columns(contra, zero)) and not tables_equal(m, *columns(contra, one))
            assert not tables_equal(m, *columns(lit, one)) and not tables_equal(m, *columns(zero, lit))
            for w in range(m):
                other = b.build(b.literal(w, True))
                assert tables_equal(m, *columns(lit, other)) == (v == w)

    def test_cap(self):
        with pytest.raises(ValueError):
            tables_equal(VAR_CAP + 1, lambda x: True, lambda x: True)


def test_equivalence_builds_no_whole_table():
    """grid 2 8 (m = 22): the comparison's peak is a small part of the
    2^22-entry bool table that comparing whole tables builds twice."""
    g = fam.grid(2, 8)
    zero = TseitinFormula(g, (0,) * g.n)
    _, d, _ = pipeline(g, unit_charge(g.n, 0), zero.charge, desk_cap=0)
    tracemalloc.start()
    try:
        assert equivalent(d, zero)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << g.m) // 4
