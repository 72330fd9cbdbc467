"""The truth-table engine against a reference on numpy bool arrays and
against pointwise evaluation, on blocks of one assignment up to a full
block, on both sides of the block boundary and with variables folded to
constants above it; and the block-by-block comparison against comparing
whole tables and against pointwise evaluation."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from lemmas import evaluate, models, nnf_truth_table, propagate_constants, reference_cnf, reference_truth_table, satisfies, tseitin_truth_table, violated_at
from tseitinkit import families as fam
from tseitinkit.compiler import equivalent, pipeline
from tseitinkit.graphs import Graph
from tseitinkit.nnf import AND, CONST, LIT, OR, CircuitBuilder, Gate, NnfCircuit, root_value
from tseitinkit.oracles import BLOCK_BITS, VAR_CAP, disj, parity, tables_equal, truth_table
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


def all_ones(m: int) -> int:
    """The truth table of the constant 1 over m variables."""
    return (1 << (1 << m)) - 1


def bits_at(table: int, masks: list[int]) -> list[bool]:
    return [bool((table >> mask) & 1) for mask in masks]


def sample_masks(m: int) -> list[int]:
    """Every assignment up to 2^8 of them; else the first and last 64,
    those on both sides of the first 15 multiples of 64, and those next
    to every block boundary."""
    if m <= 8:
        return list(range(1 << m))
    out = set(range(64)) | set(range((1 << m) - 64, 1 << m))
    out |= {edge + d for edge in range(64, 1 << min(m, 10), 64) for d in (-1, 0)}
    step = 1 << BLOCK_BITS
    for edge in range(step, 1 << m, step):
        out |= set(range(edge - 32, edge + 32))
    return sorted(out)


# blocks of one and two assignments, blocks shorter and longer than 64
# bits, both sides of the block boundary, and two variables folded to
# constants
WIDTHS = [0, 1, 5, 6, 7, BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1, BLOCK_BITS + 2]


@st.composite
def circuits(draw, widths=WIDTHS):
    """A random circuit whose first internal gates put CONST 0 and CONST 1
    under both an AND and an OR gate."""
    num_vars = draw(st.sampled_from(widths))
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
            assert 0 <= table < 1 << (1 << d.num_vars)
            want = reference_truth_table(d.num_vars, lambda block: reference_gate_values(sub, block)[i])
            assert table == want, i
            assert [evaluate(sub, mask) for mask in masks] == bits_at(table, masks), i

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
        assert table == reference_truth_table(m, lambda block: reference_tseitin(t, block))
        assert reference_truth_table(m, lambda block: reference_cnf(cnf, block)) == table
        masks = sample_masks(m)
        assert [satisfies(t, mask) for mask in masks] == bits_at(table, masks)
        for mask in masks[:8]:
            violated = [violated_at(t, mask, v) for v in range(n)]
            assert any(violated) != bool((table >> mask) & 1)

    def test_isolated_charged_vertex(self):
        t = TseitinFormula(Graph(3, [(0, 1)]), (0, 0, 1))
        table = tseitin_truth_table(t)
        assert table == 0
        assert table == reference_truth_table(1, lambda block: reference_tseitin(t, block))
        assert not satisfies(t, 0) and violated_at(t, 0, 2) and not violated_at(t, 0, 1)


@pytest.mark.parametrize("m", [BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1])
def test_engine_matches_pointwise(m):
    g = fam.cycle(m)
    zero = TseitinFormula(g, (0,) * m)
    _, d, _ = pipeline(g, unit_charge(m, 0), zero.charge, desk_cap=0)
    cnf = to_cnf(zero)
    tables = (nnf_truth_table(d), tseitin_truth_table(zero), reference_truth_table(m, lambda block: reference_cnf(cnf, block)))
    for table in tables:
        assert 0 <= table < 1 << (1 << m)
    for mask in sample_masks(m):
        want = satisfies(zero, mask)
        assert [bool((table >> mask) & 1) for table in tables] == [want, want, want], mask
        assert evaluate(d, mask) == want, mask
    assert tables[0] == tables[1] == tables[2]
    assert tables[1].bit_count() == 2  # a cycle with zero charge: all 0 or all 1


def test_constant_column_fills_the_table():
    """A constant-true root, and OR with a constant-true child, are true on
    every assignment, not only on those whose bit 0 is set."""
    b = CircuitBuilder(BLOCK_BITS + 1)
    d = b.build(b.const(1))
    assert nnf_truth_table(d) == all_ones(BLOCK_BITS + 1)
    d = NnfCircuit((Gate(LIT, var=3), Gate(CONST, a=1), Gate(OR, a=0, b=1), Gate(AND, a=1, b=2)), 3, 7)
    assert nnf_truth_table(d) == all_ones(7)


def test_cap():
    with pytest.raises(ValueError):
        truth_table(VAR_CAP + 1, lambda x: True)
    assert truth_table(0, lambda x: True) == 1

    def multiple_of_3(x):  # 0, 3 and 6 on three variables: 000, 011, 110
        b0, b1, b2 = x(0), x(1), x(2)
        return (~b0 & ~b1 & ~b2) | (b0 & b1 & ~b2) | (~b0 & b1 & b2)

    assert truth_table(3, multiple_of_3) == 0b01001001


def test_parity_over_folded_variables():
    """Parity over two folded variables, alone and with a block column, and
    its negation through the circuit's literals."""
    m = BLOCK_BITS + 2
    high = [BLOCK_BITS, BLOCK_BITS + 1]
    for edges in (high, [0] + high, [BLOCK_BITS - 1, BLOCK_BITS + 1]):
        for charge in (0, 1):
            want = reference_truth_table(m, lambda block: reference_parity(block, edges) == charge)
            assert truth_table(m, lambda x: parity(x, edges, charge)) == want, (edges, charge)
    b = CircuitBuilder(m)
    d = b.build(b.gate_and(b.literal(BLOCK_BITS, False), b.literal(BLOCK_BITS + 1, False)))
    assert models(nnf_truth_table(d)) == list(range(1 << BLOCK_BITS))


# --- the engine at every block shape, against `point` ------------------------

# a block of one and of two assignments, blocks shorter than 64 bits, and
# both sides of 64 bits and of the block boundary
EDGE_WIDTHS = [0, 1, 5, 6, 7, BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1]


def changed_at(d: NnfCircuit, mask: int, accept: bool) -> NnfCircuit:
    """d OR the minterm of `mask` when `accept`, else d AND the clause that
    excludes it: d changed on the assignment `mask` at most."""
    gates = list(d.gates)
    op = AND if accept else OR
    gates.append(Gate(CONST, a=int(accept)))
    for v in range(d.num_vars):
        gates.append(Gate(LIT, var=v, positive=bool((mask >> v) & 1) == accept))
        gates.append(Gate(op, a=len(gates) - 2, b=len(gates) - 1))
    gates.append(Gate(OR if accept else AND, a=d.root, b=len(gates) - 1))
    return NnfCircuit(tuple(gates), len(gates) - 1, d.num_vars)


class TestAgainstPoint:
    """`truth_table` and `tables_equal` against per-assignment `point`
    evaluation.  Gates 0 and 1 of every drawn circuit are the constants,
    and its first internal gates put them under an AND and an OR, so
    every example has constant roots and OR gates with a constant child."""

    @pytest.mark.parametrize("m", EDGE_WIDTHS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_every_gate(self, m, data):
        d = data.draw(circuits([m]))
        masks = sample_masks(m)
        probes = masks[::max(1, len(masks) // 5)] + masks[-1:]
        for i in range(len(d.gates)):
            sub = NnfCircuit(d.gates, i, m)
            values = [evaluate(sub, mask) for mask in masks]
            assert bits_at(nnf_truth_table(sub), masks) == values, i
            for mask in probes:
                accepted = evaluate(sub, mask)
                for accept in (True, False):
                    other = changed_at(sub, mask, accept)
                    assert evaluate(other, mask) == accept
                    assert tables_equal(m, *columns(sub, other)) == (accepted == accept), (i, mask, accept)

    @pytest.mark.parametrize("m", EDGE_WIDTHS)
    def test_literal_roots(self, m):
        masks = sample_masks(m)
        for v in range(m):
            for positive in (True, False):
                d = NnfCircuit((Gate(LIT, var=v, positive=positive),), 0, m)
                table = nnf_truth_table(d)
                assert bits_at(table, masks) == [evaluate(d, mask) for mask in masks] == \
                    [bool((mask >> v) & 1) == positive for mask in masks], (v, positive)
                assert table.bit_count() == 1 << (m - 1)
                assert tables_equal(m, lambda x: x(v, positive), *columns(d))
                assert not tables_equal(m, lambda x: x(v, not positive), *columns(d))

    @pytest.mark.parametrize("m", EDGE_WIDTHS)
    def test_columns_written_with_invert(self, m):
        """Column functions that negate with `~`, making negative ints: the
        engine masks them to the block where it compares and returns."""
        masks = sample_masks(m)
        low = range(min(m, BLOCK_BITS))
        for v in low:
            assert truth_table(m, lambda x: ~x(v)) == truth_table(m, lambda x: x(v, False))
            assert tables_equal(m, lambda x: ~x(v), lambda x: x(v, False))
            assert not tables_equal(m, lambda x: ~x(v), lambda x: x(v))
            for w in low[-2:]:
                table = truth_table(m, lambda x: ~(x(v) & ~x(w)))
                assert bits_at(table, masks) == [not ((mask >> v) & 1 and not (mask >> w) & 1) for mask in masks]
                assert tables_equal(m, lambda x: ~(x(v) & ~x(w)), lambda x: disj(x(v, False), x(w)))


# --- the block-by-block comparison ------------------------------------------


def columns(*circuits):
    return [lambda x, d=d: root_value(d, x) for d in circuits]


def tables_agree(a: NnfCircuit, b: NnfCircuit) -> bool:
    return nnf_truth_table(a) == nnf_truth_table(b)


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
        differ = models(nnf_truth_table(a) ^ nnf_truth_table(plain))
        assert {i >> BLOCK_BITS for i in differ} == {1}
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
