import random

import pytest

from lemmas import (
    condition_dnnf,
    enumerate_proof_trees,
    evaluate,
    forget_var,
    gate_rectangle,
    models,
    nnf_truth_table,
    proof_tree_models,
    propagate_constants,
    reference_smooth,
    tseitin_truth_table,
)
from tseitinkit import families as fam
from tseitinkit.nnf import (
    AND,
    CONST,
    LIT,
    OR,
    CircuitBuilder,
    Gate,
    NnfCircuit,
    is_smooth,
    model_count_smooth,
    nnf_from_text,
    nnf_to_text,
    rename_flip,
    restrict_to_root,
    smooth,
    validate_decomposable,
)
from tseitinkit.tseitin import TseitinFormula


def circuit_and_xy():
    b = CircuitBuilder(2)
    return b.build(b.gate_and(b.literal(0, True), b.literal(1, True)))


def circuit_x_or_xy():
    b = CircuitBuilder(2)
    x = b.literal(0, True)
    return b.build(b.gate_or(x, b.gate_and(x, b.literal(1, True))))


def circuit_xy_or_notx_noty():
    b = CircuitBuilder(2)
    left = b.gate_and(b.literal(0, True), b.literal(1, True))
    right = b.gate_and(b.literal(0, False), b.literal(1, False))
    return b.build(b.gate_or(left, right))


class TestDecomposability:
    def test_and_disjoint(self):
        assert validate_decomposable(circuit_and_xy())

    def test_shared_variable(self):
        b = CircuitBuilder(2)
        x = b.literal(0, True)
        d = b.build(b.gate_and(x, b.gate_or(x, b.literal(1, True))))
        assert not validate_decomposable(d)


    @pytest.mark.parametrize("child", [1, 2], ids=["itself", "later"])
    def test_gate_out_of_topological_order_rejected(self, child):
        gates = (Gate(LIT, var=0, positive=True), Gate(AND, 0, child), Gate(LIT, var=1, positive=True))
        with pytest.raises(ValueError, match="^gate 1 not in topological order$"):
            NnfCircuit(gates, 1, 2)

class TestSmoothing:
    def test_not_decomposable_rejected(self):
        # x AND (x OR y): smoothing and counting need a DNNF
        b = CircuitBuilder(2)
        x = b.literal(0, True)
        d = b.build(b.gate_and(x, b.gate_or(x, b.literal(1, True))))
        for fn in (smooth, model_count_smooth):
            with pytest.raises(ValueError, match="^circuit must be decomposable$"):
                fn(d)

    def test_pads_missing_variable(self):
        d = circuit_x_or_xy()
        s = reference_smooth(d)
        assert is_smooth(s)
        assert models(nnf_truth_table(s)) == models(nnf_truth_table(d))

    def test_already_smooth_unchanged(self):
        d = smooth(circuit_xy_or_notx_noty())
        assert smooth(d) is d

    def test_preserves_decomposability(self):
        s = reference_smooth(circuit_x_or_xy())
        assert validate_decomposable(s)


class TestCounting:
    def test_x_or_not_x(self):
        b = CircuitBuilder(1)
        d = b.build(b.gate_or(b.literal(0, True), b.literal(0, False)))
        assert model_count_smooth(d) == 2

    def test_requires_smooth(self):
        # x OR (x AND y) is refused, not padded
        for fn in (smooth, model_count_smooth):
            with pytest.raises(ValueError, match="^circuit must be smooth$"):
                fn(circuit_x_or_xy())

    def test_decision_form_matches_brute_force(self):
        d = smooth(circuit_xy_or_notx_noty())
        assert model_count_smooth(d) == len(models(nnf_truth_table(d))) == 2

    def test_constant_counts_as_its_value(self):
        # a constant mentions no variable, so 1 AND (x OR not-x) is smooth
        # with two models over var(root); 0 AND (x OR not-x) has none
        for value in (0, 1):
            b = CircuitBuilder(1)
            unit = b.gate_or(b.literal(0, True), b.literal(0, False))
            assert model_count_smooth(b.build(b.gate_and(b.const(value), unit))) == 2 * value
            assert model_count_smooth(b.build(b.const(value))) == value

    def test_or_with_constant_child_rejected(self):
        # 0 OR x: the children mention {} and {x}, so the OR is not smooth
        b = CircuitBuilder(1)
        d = b.build(b.gate_or(b.const(0), b.literal(0, True)))
        assert not is_smooth(d)
        for fn in (smooth, model_count_smooth):
            with pytest.raises(ValueError, match="^circuit must be smooth$"):
                fn(d)


class TestEvaluate:
    def test_and(self):
        d = circuit_and_xy()
        assert evaluate(d, 0b11)
        assert not evaluate(d, 0b01)

    def test_truth_table_matches_pointwise(self):
        d = smooth(circuit_xy_or_notx_noty())
        table = nnf_truth_table(d)
        for mask in range(4):
            assert bool((table >> mask) & 1) == evaluate(d, mask)


class TestConditionForget:
    def test_condition_examples(self):
        d = circuit_and_xy()
        assert models(nnf_truth_table(condition_dnnf(d, 0, 1))) == [2, 3]
        c0 = condition_dnnf(d, 0, 0)
        assert c0.gates[c0.root] == Gate("C", a=0)

    def test_forget_examples(self):
        d = circuit_and_xy()
        assert models(nnf_truth_table(forget_var(d, 1))) == [1, 3]
        both = circuit_xy_or_notx_noty()
        assert models(nnf_truth_table(forget_var(both, 1))) == [0, 1, 2, 3]

    def test_forget_equals_or_of_conditionings(self, bench_graph):
        _, g = bench_graph
        if g.m > 8:
            return
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        var = 0
        forgotten = set(models(nnf_truth_table(forget_var(d, var))))
        m0 = nnf_truth_table(condition_dnnf(d, var, 0))
        m1 = nnf_truth_table(condition_dnnf(d, var, 1))
        either = {i for i in range(1 << g.m) if ((m0 | m1) >> i) & 1}
        assert forgotten == either

    def test_subdivision_replay(self):
        # path 0-1-2, charge zero: both edges forced equal; forgetting the
        # second edge leaves the single-edge zero-charge formula on edge 0
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        g = fam.path(3)
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0, 0, 0))
        contracted = forget_var(d, 1)
        assert models(nnf_truth_table(contracted)) == [0b00, 0b10]  # edge 1 is now a free bit
        table = nnf_truth_table(contracted)
        kept = {mask & 0b01 for mask in range(4) if (table >> mask) & 1}
        assert kept == {0}  # projected function: the single-edge zero formula

    def test_size_never_grows(self):
        d = smooth(circuit_xy_or_notx_noty())
        assert forget_var(d, 0).size <= d.size
        assert condition_dnnf(d, 0, 1).size <= d.size


class TestRenameFlip:
    def test_empty_flip_identity(self):
        # circuits are immutable, so no flip needs no copy
        d = circuit_and_xy()
        assert rename_flip(d, set()) is d

    def test_flip_returns_a_new_circuit_and_leaves_its_input(self):
        d = circuit_and_xy()
        before = d.gates
        flipped = rename_flip(d, {0})
        assert flipped is not d and flipped != d
        assert d.gates is before and d.gates == before
        assert [g.positive for g in d.gates if g.kind == "L"] == [True, True]
        assert sorted((g.var, g.positive) for g in flipped.gates if g.kind == "L") == [(0, False), (1, True)]

    def test_double_flip_identity(self):
        d = circuit_and_xy()
        assert rename_flip(rename_flip(d, {0}), {0}) == d

    def test_flip_matches_retargeted_formula(self):
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import charge_retarget_flips, unit_charge

        g = fam.cycle(3)
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0, 0, 0))
        flips = charge_retarget_flips(g, (0, 0, 0), (1, 1, 0))
        target = TseitinFormula(g, (1, 1, 0))
        assert set(models(nnf_truth_table(rename_flip(d, flips)))) == set(models(tseitin_truth_table(target)))


class TestProofTrees:
    def test_models_match(self):
        d = smooth(circuit_xy_or_notx_noty())
        assert proof_tree_models(d) == set(models(nnf_truth_table(d)))

    def test_compiled_circuit_proof_trees(self):
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        g = fam.complete(4)
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * 4)
        ds = smooth(d)
        assert proof_tree_models(ds) == set(models(nnf_truth_table(ds)))
        assert len(enumerate_proof_trees(ds)) == 8  # decision form: one tree per model


class TestGateRectangles:
    def test_root_rectangle_is_sat_set(self):
        d = smooth(circuit_xy_or_notx_noty())
        rect = gate_rectangle(d, d.root)
        assert rect.models() == set(models(nnf_truth_table(d)))
        assert rect.b_side == frozenset({0})

    def test_single_variable_circuit(self):
        b = CircuitBuilder(1)
        d = b.build(b.gate_or(b.literal(0, True), b.literal(0, False)))
        for gid in range(d.node_count):
            rect = gate_rectangle(d, gid)
            assert rect.size in (0, 1, 2)

    def test_every_gate_of_compiled_c3(self):
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        g = fam.cycle(3)
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0, 0, 0))
        ds = smooth(d)
        sat = set(models(nnf_truth_table(ds)))
        trees = enumerate_proof_trees(ds)
        for gid in range(ds.node_count):
            rect = gate_rectangle(ds, gid, trees)
            assert rect.models() <= sat


class TestTransformsPreserveDecomposability:
    def test_family(self, bench_graph):
        _, g = bench_graph
        if g.m > 10:
            return
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        for transformed in (
            smooth(d),
            condition_dnnf(d, 0, 1),
            condition_dnnf(d, 0, 0),
            forget_var(d, 0),
            rename_flip(d, {0}),
        ):
            assert validate_decomposable(transformed)


class TestConstants:
    def test_propagation_removes_internal_constants(self):
        b = CircuitBuilder(2)
        one = b.const(1)
        d = b.build(b.gate_and(b.literal(0, True), b.gate_and(one, b.literal(1, True))))
        p = propagate_constants(d)
        assert all(g.kind != "C" for g in p.gates)
        assert models(nnf_truth_table(p)) == models(nnf_truth_table(d))

    def test_restrict_drops_unreachable(self):
        b = CircuitBuilder(2)
        b.literal(1, False)  # never used
        root = b.gate_and(b.literal(0, True), b.literal(1, True))
        d = restrict_to_root(b.build(root))
        assert d.node_count == 3

    def test_restrict_returns_a_fully_reachable_circuit(self, bench_graph):
        # a compiled circuit is trimmed to its root as built: nothing to drop, no copy
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        _, g = bench_graph
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        assert restrict_to_root(d) is d


def random_circuit(rng: random.Random, folded: bool) -> NnfCircuit:
    """A random decomposable circuit over 4 variables, its gates laid down
    directly: an AND joins two gates with disjoint variables, an OR any
    two.  Unless `folded`, constants, repeated literal leaves and gates
    the root does not reach all occur; if `folded`, none does."""
    gates: list[Gate] = []
    masks: list[int] = []
    for _ in range(rng.randint(1, 12)):
        if len(gates) < 2 or rng.random() < 0.4:
            if not folded and rng.random() < 0.2:
                gates.append(Gate(CONST, rng.randint(0, 1)))
                masks.append(0)
                continue
            leaf = Gate(LIT, -1, -1, rng.randrange(4), rng.random() < 0.5)
            if folded and leaf in gates:
                continue
            gates.append(leaf)
            masks.append(1 << leaf.var)
        else:
            a, b = sorted(rng.sample(range(len(gates)), 2))
            kind = AND if not masks[a] & masks[b] else OR
            gates.append(Gate(kind, a, b))
            masks.append(masks[a] | masks[b])
    root = len(gates) - 1 if folded or rng.random() < 0.7 else rng.randrange(len(gates))
    d = NnfCircuit(tuple(gates), root, 4)
    return restrict_to_root(d) if folded else d


def assert_smooth_checks(d: NnfCircuit) -> bool:
    """`smooth` returns d itself when d is smooth and refuses it otherwise;
    then the tests' smoother (`reference_smooth`) gives a smooth
    decomposable circuit with d's truth table.  Returns whether d is
    smooth."""
    if is_smooth(d):
        assert smooth(d) is d
        return True
    with pytest.raises(ValueError, match="^circuit must be smooth$"):
        smooth(d)
    s = reference_smooth(d)
    assert is_smooth(s) and validate_decomposable(s)
    assert nnf_truth_table(s) == nnf_truth_table(d)
    return False


def something_to_fold(d: NnfCircuit) -> bool:
    """A constant below a gate, a literal leaf twice or a gate the root
    does not reach (a root that is not the last gate is one)."""
    leaves = [g for g in d.gates if g.kind == LIT]
    return (
        d.node_count > 1 and any(g.kind == CONST for g in d.gates)
        or len(set(leaves)) < len(leaves)
        or restrict_to_root(d) is not d
    )


class TestNothingToChange:
    """`smooth` returns its input when it is smooth, whatever a folding
    rebuild would change in it, and otherwise refuses it; the tests'
    smoother (`reference_smooth`) folds and then pads."""

    @pytest.mark.parametrize("folded", [False, True], ids=["any", "folded"])
    def test_random_circuits(self, folded):
        rng = random.Random(f"short circuit {folded}")
        seen = set()
        for _ in range(2000 if not folded else 400):
            d = random_circuit(rng, folded)
            to_fold = something_to_fold(d)
            assert to_fold == (propagate_constants(d) != d)
            seen.add((assert_smooth_checks(d), to_fold))
        # both sides of the short-circuit were taken, with and without
        # something to fold
        assert seen == ({(True, False), (False, False)} if folded else {(True, True), (True, False), (False, True), (False, False)})

    def test_duplicate_literal_leaf(self):
        x = Gate(LIT, -1, -1, 0, True)
        d = NnfCircuit((x, Gate(LIT, -1, -1, 1, True), x, Gate(AND, 0, 1), Gate(OR, 3, 2)), 4, 2)
        assert not assert_smooth_checks(d)
        assert propagate_constants(d).node_count == 4

    def test_unreachable_gate(self):
        b = CircuitBuilder(2)
        b.literal(1, False)  # never used
        d = b.build(b.gate_and(b.literal(0, True), b.literal(1, True)))
        assert assert_smooth_checks(d)
        assert propagate_constants(d).node_count == 3

    def test_gate_above_the_root(self):
        d = circuit_and_xy()
        d = NnfCircuit(d.gates + (Gate(OR, 0, 2),), d.root, d.num_vars)
        # the gate above the root is an OR that is not smooth, so `smooth`
        # refuses the circuit, and the tests' smoother drops that gate
        assert not assert_smooth_checks(d)
        assert reference_smooth(d) == propagate_constants(d) == circuit_and_xy()

    def test_constant_below_a_gate(self):
        # smooth as it is: the constant mentions no variable, and counts as
        # its value
        b = CircuitBuilder(1)
        d = b.build(b.gate_and(b.literal(0, True), b.const(1)))
        assert assert_smooth_checks(d)
        assert model_count_smooth(d) == 1
        assert propagate_constants(d).gates == (Gate(LIT, -1, -1, 0, True),)

    @pytest.mark.parametrize("gate", [Gate(LIT, -1, -1, 0, False), Gate(CONST, 0), Gate(CONST, 1)],
                             ids=["literal", "const0", "const1"])
    def test_single_gate(self, gate):
        d = NnfCircuit((gate,), 0, 1)
        assert assert_smooth_checks(d)
        assert propagate_constants(d) == d

    def test_literal_out_of_range_still_rejected(self):
        x3 = Gate(LIT, -1, -1, 3, True)
        with pytest.raises(ValueError, match="out of range"):
            propagate_constants(NnfCircuit((x3,), 0, 2))
        # x3 OR (x3 AND x0) is not smooth: `smooth` refuses it with four
        # variables and the circuit refuses x3 with two
        not_smooth = NnfCircuit((x3, Gate(LIT, -1, -1, 0, True), Gate(AND, 0, 1), Gate(OR, 0, 2)), 3, 4)
        assert not assert_smooth_checks(not_smooth)
        with pytest.raises(ValueError, match="out of range"):
            smooth(NnfCircuit(not_smooth.gates, 3, 2))

    @pytest.mark.parametrize("var", [-1, 2])
    def test_circuit_refuses_a_literal_out_of_range(self, var):
        # a lone literal is smooth, so `smooth` would return it as it is
        # and `model_count_smooth` would count it: the circuit refuses it
        x = Gate(LIT, -1, -1, var, True)
        with pytest.raises(ValueError, match=f"^gate 1: variable {var} out of range$"):
            NnfCircuit((Gate(LIT, -1, -1, 0, True), x, Gate(AND, 0, 1)), 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            model_count_smooth(smooth(NnfCircuit((x,), 0, 2)))

    def test_non_smooth_or(self):
        d = circuit_x_or_xy()
        assert not assert_smooth_checks(d)


class TestNnfText:
    def test_round_trip_small(self):
        d = smooth(circuit_xy_or_notx_noty())
        text = nnf_to_text(d)
        back = nnf_from_text(text)
        assert nnf_to_text(back) == text
        assert models(nnf_truth_table(back)) == models(nnf_truth_table(d))

    def test_round_trip_compiled(self, bench_graph):
        _, g = bench_graph
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        text = nnf_to_text(d)
        back = nnf_from_text(text)
        assert nnf_to_text(back) == text
        assert nnf_truth_table(back) == nnf_truth_table(d)

    def test_constants_encoding(self):
        b = CircuitBuilder(1)
        d = b.build(b.const(1))
        assert nnf_to_text(d).splitlines()[1] == "A 0"
        b2 = CircuitBuilder(1)
        d2 = b2.build(b2.const(0))
        assert nnf_to_text(d2).splitlines()[1] == "O 0 0"

    @pytest.mark.parametrize("line", ["A", "O", "O 0"])
    def test_gate_without_child_count_names_its_line(self, line):
        with pytest.raises(ValueError) as info:
            nnf_from_text(f"nnf 2 0 1\nc a comment\nL 1\n{line}\n")
        assert str(info.value) == f"line 4: no child count in {line!r}"

    def test_nary_input_binarized(self):
        text = "nnf 4 3 3\nL 1\nL 2\nL 3\nA 3 0 1 2\n"
        d = nnf_from_text(text)
        assert models(nnf_truth_table(d)) == [0b111]
