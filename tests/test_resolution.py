import random

import pytest

from tseitinkit import families as fam
from tseitinkit.cnf import Cnf
from tseitinkit.resolution import (
    ResolutionTrace,
    Step,
    _branch_variable,
    _TraceBuilder,
    check_refutation,
    check_regularity,
    dpll_refute,
    resolve,
    trace_from_text,
    trace_to_text,
)
from tseitinkit.tseitin import TseitinFormula, to_cnf, unit_charge


UNIT_CNF = Cnf(1, (frozenset({1}), frozenset({-1})))
UNIT_TRACE = ResolutionTrace((
    Step(1, frozenset({1})),
    Step(2, frozenset({-1})),
    Step(3, frozenset(), (1, 2), 1),
))


def family_cnfs():
    graphs = [
        ("C3", fam.cycle(3)), ("C4", fam.cycle(4)), ("C5", fam.cycle(5)), ("C6", fam.cycle(6)),
        ("P3", fam.path(3)), ("K4", fam.complete(4)), ("W4", fam.wheel(4)),
        ("grid2x3", fam.grid(2, 3)), ("bowtie", fam.bowtie()),
    ]
    return [(name, to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))) for name, g in graphs]


class TestChecker:
    def test_unit_trace_valid(self):
        assert check_refutation(UNIT_CNF, UNIT_TRACE)
        assert check_regularity(UNIT_TRACE)

    def test_final_clause_must_be_empty(self):
        bad = ResolutionTrace(UNIT_TRACE.steps[:2] + (Step(3, frozenset({1}), None, None),))
        result = check_refutation(UNIT_CNF, bad)
        assert not result and "empty" in result.error

    def test_axiom_must_be_an_input_clause(self):
        bad = ResolutionTrace((Step(1, frozenset({1, -2})),) + UNIT_TRACE.steps[1:])
        result = check_refutation(Cnf(2, UNIT_CNF.clauses), bad)
        assert not result and result.failed_step == 1

    def test_wrong_resolvent_rejected(self):
        bad = ResolutionTrace((
            Step(1, frozenset({1, 2})),
            Step(2, frozenset({-1})),
            Step(3, frozenset(), (1, 2), 1),
        ))
        cnf = Cnf(2, (frozenset({1, 2}), frozenset({-1})))
        result = check_refutation(cnf, bad)
        assert not result and result.failed_step == 3

    def test_antecedent_must_precede(self):
        bad = ResolutionTrace((
            Step(1, frozenset({1})),
            Step(3, frozenset(), (1, 5), 1),
        ))
        assert not check_refutation(UNIT_CNF, bad)

    def test_tautology_flagged_but_permitted(self):
        cnf = Cnf(2, (frozenset({1, 2}), frozenset({-1, -2}), frozenset({1, -2}), frozenset({-1, 2})))
        steps = (
            Step(1, frozenset({1, 2})),
            Step(2, frozenset({-1, -2})),
            Step(3, frozenset({2, -2}), (1, 2), 1),
            Step(4, frozenset({1, -2})),
            Step(5, frozenset({-1, 2})),
            Step(6, frozenset({-2, 2}), (4, 5), 1),
            Step(7, frozenset({2}), (1, 5), 1),
            Step(8, frozenset({-2}), (4, 2), 1),
            Step(9, frozenset(), (7, 8), 2),
        )
        result = check_refutation(cnf, ResolutionTrace(steps))
        assert result.ok
        assert result.tautology_steps == [3, 6]


class TestRegularity:
    def test_hand_built_violation(self):
        # path 1 -> 3 -> 5 -> 7 -> 10 carries labels x, y, x, y
        x, y = 1, 2
        cnf = Cnf(2, (frozenset({x, y}), frozenset({-x, y}), frozenset({x, -y}), frozenset({-x, -y})))
        steps = (
            Step(1, frozenset({x, y})),
            Step(2, frozenset({-x, y})),
            Step(3, frozenset({y}), (1, 2), x),
            Step(4, frozenset({x, -y})),
            Step(5, frozenset({x}), (3, 4), y),
            Step(7, frozenset({y}), (5, 2), x),
            Step(8, frozenset({-x, -y})),
            Step(9, frozenset({-y}), (4, 8), x),
            Step(10, frozenset(), (7, 9), y),
        )
        trace = ResolutionTrace(steps)
        assert check_refutation(cnf, trace).ok
        assert not check_regularity(trace)

    def test_regular_four_clause_refutation(self):
        x, y = 1, 2
        cnf = Cnf(2, (frozenset({x, y}), frozenset({-x, y}), frozenset({x, -y}), frozenset({-x, -y})))
        steps = (
            Step(1, frozenset({x, y})),
            Step(2, frozenset({-x, y})),
            Step(3, frozenset({y}), (1, 2), x),
            Step(4, frozenset({x, -y})),
            Step(5, frozenset({-x, -y})),
            Step(6, frozenset({-y}), (4, 5), x),
            Step(7, frozenset(), (3, 6), y),
        )
        trace = ResolutionTrace(steps)
        assert check_refutation(cnf, trace).ok
        assert check_regularity(trace)


class TestDpll:
    def test_unit(self):
        trace = dpll_refute(UNIT_CNF)
        assert len(trace) == 3
        assert check_refutation(UNIT_CNF, trace).ok

    def test_satisfiable_rejected(self):
        with pytest.raises(ValueError):
            dpll_refute(Cnf(2, (frozenset({1, 2}),)))

    def test_c3_bound(self):
        cnf = to_cnf(TseitinFormula(fam.cycle(3), (1, 0, 0)))
        trace = dpll_refute(cnf)
        assert len(trace) <= 13
        assert check_refutation(cnf, trace).ok
        assert check_regularity(trace)

    def test_cycle_regression_bound(self):
        for n in range(4, 9):
            cnf = to_cnf(TseitinFormula(fam.cycle(n), unit_charge(n, 0)))
            trace = dpll_refute(cnf)
            assert len(trace) <= 30 * n

    def test_deeper_than_recursion_limit(self):
        # on a path the search assigns one edge after another, 1099 deep
        n = 1100
        cnf = to_cnf(TseitinFormula(fam.path(n), unit_charge(n, 0)))
        trace = dpll_refute(cnf)
        assert check_refutation(cnf, trace).ok
        assert check_regularity(trace)

    @pytest.mark.parametrize("name,cnf", family_cnfs(), ids=[n for n, _ in family_cnfs()])
    def test_family_traces_valid_and_regular(self, name, cnf):
        trace = dpll_refute(cnf)
        result = check_refutation(cnf, trace)
        assert result.ok, result.error
        assert check_regularity(trace)
        assert not result.tautology_steps


def reference_dpll_refute(cnf: Cnf) -> ResolutionTrace:
    """dpll_refute as first written: every search node rescans the whole
    CNF for the clauses its assignment leaves open.  The library narrows
    its parent's list instead; its traces must not differ."""
    builder = _TraceBuilder()

    def restricted(assignment):
        out = []
        for idx, cl in enumerate(cnf.clauses):
            keep = []
            satisfied = False
            for lit in cl:
                v = abs(lit)
                if v in assignment:
                    if (lit > 0) == bool(assignment[v]):
                        satisfied = True
                        break
                else:
                    keep.append(lit)
            if not satisfied:
                out.append((idx, keep))
        return out

    def refute(assignment, assigned_mask):
        open_clauses = restricted(assignment)
        for idx, keep in open_clauses:
            if not keep:
                clause = frozenset(cnf.clauses[idx])
                sid = builder.lookup(clause, assigned_mask)
                return sid if sid is not None else builder.add(clause)
        if not open_clauses:
            raise ValueError("CNF is satisfiable; nothing to refute")
        x = _branch_variable(open_clauses)
        bit = 1 << x
        s0 = refute({**assignment, x: 0}, assigned_mask | bit)
        s1 = refute({**assignment, x: 1}, assigned_mask | bit)
        c0 = builder.steps[s0 - 1].clause
        c1 = builder.steps[s1 - 1].clause
        if x in c0 and -x in c1:
            clause = resolve(c0, c1, x)
            sid = builder.lookup(clause, assigned_mask)
            return sid if sid is not None else builder.add(clause, (s0, s1), x)
        return s0 if x not in c0 else s1

    refute({}, 0)
    return ResolutionTrace(tuple(builder.steps))


class TestAgainstReference:
    def check(self, g):
        cnf = to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))
        assert trace_to_text(dpll_refute(cnf)) == trace_to_text(reference_dpll_refute(cnf))

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        self.check(g)

    @pytest.mark.parametrize("g", [fam.random_regular(16, 3, 1), fam.grid(4, 5)], ids=["rr16", "grid4x5"])
    def test_benchmark_graphs(self, g):
        self.check(g)

    def test_same_rejection(self):
        cnf = Cnf(2, (frozenset({1, 2}),))
        for refute in (dpll_refute, reference_dpll_refute):
            with pytest.raises(ValueError, match="satisfiable"):
                refute(cnf)


from mutations import corrupt  # noqa: E402  (shared with the acceptance suite)


class TestMutations:
    @pytest.mark.parametrize("name,cnf", family_cnfs(), ids=[n for n, _ in family_cnfs()])
    def test_corruptions_rejected(self, name, cnf):
        trace = dpll_refute(cnf)
        assert check_refutation(cnf, trace).ok
        rng = random.Random(7)
        rejected = 0
        for _ in range(25):
            mutated = corrupt(trace, rng, cnf.num_vars)
            if mutated.steps == trace.steps:
                continue
            assert not check_refutation(cnf, mutated).ok
            rejected += 1
        assert rejected >= 20


class TestTraceText:
    def test_round_trip(self):
        cnf = to_cnf(TseitinFormula(fam.cycle(4), unit_charge(4, 0)))
        trace = dpll_refute(cnf)
        text = trace_to_text(trace)
        back = trace_from_text(text)
        assert back == trace
        assert trace_to_text(back) == text

    def test_axioms_have_empty_antecedents(self):
        text = trace_to_text(UNIT_TRACE)
        assert text.splitlines()[0] == "1 1 0 0"
        assert trace_from_text(text) == UNIT_TRACE


class TestResolveHelper:
    def test_resolvent(self):
        assert resolve(frozenset({1, 2}), frozenset({-1, 3}), 1) == frozenset({2, 3})

    def test_pivot_must_be_present(self):
        with pytest.raises(ValueError):
            resolve(frozenset({2}), frozenset({-1}), 1)
