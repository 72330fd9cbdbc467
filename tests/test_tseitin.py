import random

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import (
    SubConstraint,
    apply_flips,
    conjoin_models,
    conjoin_subconstraints_count,
    models,
    reference_cnf,
    reference_truth_table,
    sample_charges,
    tseitin_truth_table,
)
from tseitinkit import families as fam
from tseitinkit.cnf import cnf_from_dimacs, cnf_to_dimacs
from tseitinkit.graphs import Graph
from tseitinkit.tseitin import (
    TseitinFormula,
    charge_add,
    charge_retarget_flips,
    is_satisfiable,
    model_count,
    to_cnf,
    tseitin_from_text,
    tseitin_to_text,
    unit_charge,
)


def graphs_with_charges(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
        charge = tuple(draw(st.integers(0, 1)) for _ in range(n))
        return TseitinFormula(Graph(n, tuple(sorted(edges))), charge)

    return build()


class TestSatisfiability:
    def test_zero_charge(self):
        assert is_satisfiable(TseitinFormula(fam.cycle(3), (0, 0, 0)))

    def test_odd_component(self):
        assert not is_satisfiable(TseitinFormula(fam.cycle(3), (1, 0, 0)))

    def test_disconnected_per_component(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert is_satisfiable(TseitinFormula(g, (1, 1, 0, 0)))
        assert not is_satisfiable(TseitinFormula(g, (1, 0, 1, 0)))


class TestModelCount:
    def test_k4(self):
        assert model_count(TseitinFormula(fam.complete(4), (0,) * 4)) == 8

    def test_unsat_zero(self):
        assert model_count(TseitinFormula(fam.cycle(3), (1, 0, 0))) == 0

    def test_c4_matches_brute_force(self):
        t = TseitinFormula(fam.cycle(4), (0,) * 4)
        assert model_count(t) == 2
        assert len(models(tseitin_truth_table(t))) == 2

    @settings(max_examples=120, deadline=None)
    @given(graphs_with_charges())
    def test_count_equals_enumeration(self, t):
        assert model_count(t) == len(models(tseitin_truth_table(t)))

    def test_brute_force_cap(self):
        g = fam.grid(5, 5)  # 40 edges
        with pytest.raises(ValueError):
            models(tseitin_truth_table(TseitinFormula(g, (0,) * g.n)))


class TestBruteForceModels:
    def test_c3_zero(self):
        assert models(tseitin_truth_table(TseitinFormula(fam.cycle(3), (0, 0, 0)))) == [0b000, 0b111]

    def test_single_edge(self):
        assert models(tseitin_truth_table(TseitinFormula(fam.path(2), (0, 0)))) == [0]


def cnf_table(cnf):
    return reference_truth_table(cnf.num_vars, lambda block: reference_cnf(cnf, block))


class TestCnfEncoding:
    def test_degree_2_equality(self):
        t = TseitinFormula(fam.path(3), (0, 0, 0))
        cnf = to_cnf(t)
        middle = [cl for cl in cnf.clauses if len(cl) == 2]
        assert frozenset({1, -2}) in middle and frozenset({-1, 2}) in middle

    def test_degree_3_clauses(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        t = TseitinFormula(star, (0, 0, 0, 0))
        cnf = to_cnf(t)
        at_center = [cl for cl in cnf.clauses if len(cl) == 3]
        assert set(at_center[:4]) == {
            frozenset({-1, -2, -3}),
            frozenset({-1, 2, 3}),
            frozenset({1, -2, 3}),
            frozenset({1, 2, -3}),
        }

    def test_clause_budget(self, bench_graph):
        _, g = bench_graph
        t = TseitinFormula(g, (0,) * g.n)
        cnf = to_cnf(t)
        assert len(cnf.clauses) == sum(1 << (len(inc) - 1) for inc in g.incident if inc)

    def test_c3_odd_six_clauses_unsat(self):
        cnf = to_cnf(TseitinFormula(fam.cycle(3), (1, 0, 0)))
        assert len(cnf.clauses) == 6
        assert cnf_table(cnf) == 0

    def test_cnf_models_match_semantics(self, bench_graph):
        _, g = bench_graph
        for charge in sample_charges(g.n, 4, seed=1):
            t = TseitinFormula(g, charge)
            assert cnf_table(to_cnf(t)) == tseitin_truth_table(t)

    def test_charged_isolated_vertex(self):
        g = Graph(1, ())
        cnf = to_cnf(TseitinFormula(g, (1,)))
        assert cnf.clauses == (frozenset(),)
        assert to_cnf(TseitinFormula(g, (0,))).clauses == ()

    def test_degree_cap(self):
        star = Graph(10, tuple((0, i) for i in range(1, 10)))
        with pytest.raises(ValueError):
            to_cnf(TseitinFormula(star, (0,) * 10))


class TestConjoinSubconstraints:
    def test_c4_single(self):
        t = TseitinFormula(fam.cycle(4), (0,) * 4)
        sub = SubConstraint(0, (0,), 0)
        assert conjoin_subconstraints_count(t, [sub]) == 1
        assert conjoin_models(t, [sub]) == [0]

    def test_k4_split(self):
        t = TseitinFormula(fam.complete(4), (0,) * 4)
        sub = SubConstraint(3, (2,), 0)  # edge 2 is {0,3}: split ({0},{1,2})
        assert conjoin_subconstraints_count(t, [sub]) == 4
        assert len(conjoin_models(t, [sub])) == 4

    def test_no_subs_reduces_to_count(self, bench_graph):
        _, g = bench_graph
        t = TseitinFormula(g, (0,) * g.n)
        assert conjoin_subconstraints_count(t, []) == model_count(t)

    def test_disconnected_split_rejected(self):
        t = TseitinFormula(fam.bowtie(), (0,) * 5)
        # splitting the shared vertex into the two triangles disconnects
        sub = SubConstraint(2, (1, 2), 0)  # edges {0,2} and {1,2}
        with pytest.raises(ValueError):
            conjoin_subconstraints_count(t, [sub])
        # the brute-force path still works: both triangle orientations
        # have even parity at the shared vertex, so all 4 models survive
        assert conjoin_models(t, [sub]) == [0b000000, 0b000111, 0b111000, 0b111111]

    def test_unsatisfiable_rejected(self):
        t = TseitinFormula(fam.cycle(4), (1, 0, 0, 0))
        with pytest.raises(ValueError):
            conjoin_subconstraints_count(t, [SubConstraint(0, (0,), 0)])


class TestChargeRetargeting:
    def test_identity(self):
        g = fam.cycle(3)
        assert charge_retarget_flips(g, (0, 0, 0), (0, 0, 0)) == set()

    def test_c3_adjacent_pair(self):
        g = fam.cycle(3)
        flips = charge_retarget_flips(g, (1, 1, 0), (0, 0, 0))
        assert flips == {0}
        before = set(models(tseitin_truth_table(TseitinFormula(g, (1, 1, 0)))))
        after = {apply_flips(x, flips) for x in before}
        assert after == {0b000, 0b111}

    def test_k4_two_tree_paths(self):
        g = fam.complete(4)
        flips = charge_retarget_flips(g, (1, 1, 1, 1), (0, 0, 0, 0))
        m1 = set(models(tseitin_truth_table(TseitinFormula(g, (1, 1, 1, 1)))))
        m0 = set(models(tseitin_truth_table(TseitinFormula(g, (0, 0, 0, 0)))))
        assert {apply_flips(x, flips) for x in m1} == m0

    def test_unsat_rejected(self):
        with pytest.raises(ValueError):
            charge_retarget_flips(fam.cycle(3), (1, 0, 0), (0, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_charges(max_n=5), st.data())
    def test_involution_on_random_pairs(self, t, data):
        if not is_satisfiable(t):
            return
        flip_targets = data.draw(st.lists(st.integers(0, t.graph.n - 1), max_size=3))
        c2 = t.charge
        for v in flip_targets:
            comp = next(c for c in _components(t.graph) if v in c)
            other = data.draw(st.sampled_from(sorted(comp)))
            c2 = charge_add(c2, charge_add(unit_charge(t.graph.n, v), unit_charge(t.graph.n, other)))
        flips = charge_retarget_flips(t.graph, t.charge, c2)
        src = set(models(tseitin_truth_table(t)))
        dst = set(models(tseitin_truth_table(TseitinFormula(t.graph, c2))))
        assert {apply_flips(x, flips) for x in src} == dst
        assert {apply_flips(x, flips) for x in dst} == src

    @pytest.mark.parametrize("seed", range(5))
    def test_same_flips_as_level_search(self, bench_graph, seed):
        _, g = bench_graph
        rng = random.Random(seed)
        charges = []
        for _ in range(2):
            bits = [rng.randint(0, 1) for _ in range(g.n)]
            for comp in _components(g):
                if sum(bits[v] for v in comp) % 2:
                    bits[max(comp)] ^= 1
            charges.append(tuple(bits))
        assert charge_retarget_flips(g, *charges) == reference_retarget_flips(g, *charges)


def reference_retarget_flips(g, c, c_star) -> set[int]:
    """charge_retarget_flips as first written: a level-by-level search per
    component from its smallest vertex, and the pairing paths read off it."""
    flips = set()
    for comp in _components(g):
        diff = sorted(v for v in comp if c[v] != c_star[v])
        if not diff:
            continue
        root = min(comp)
        parent_edge = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for e in g.incident[u]:
                    w = g.other_end(e, u)
                    if w not in parent_edge:
                        parent_edge[w] = (u, e)
                        nxt.append(w)
            queue = nxt

        def tree_path(v):
            path = set()
            while parent_edge[v] is not None:
                v, e = parent_edge[v]
                path.add(e)
            return path

        for a, b in zip(diff[0::2], diff[1::2], strict=True):
            flips ^= tree_path(a) ^ tree_path(b)
    return flips


def _components(g):
    from tseitinkit.graphs import connected_components

    return connected_components(g)


class TestTextFormats:
    def test_tseitin_round_trip(self, bench_graph):
        _, g = bench_graph
        t = TseitinFormula(g, unit_charge(g.n, 0))
        assert tseitin_from_text(tseitin_to_text(t)) == t

    def test_dimacs_round_trip(self):
        cnf = to_cnf(TseitinFormula(fam.cycle(4), (0,) * 4))
        text = cnf_to_dimacs(cnf)
        back = cnf_from_dimacs(text)
        assert set(back.clauses) == set(cnf.clauses)
        assert cnf_to_dimacs(back) == text

    def test_edge_lines_may_precede_the_header(self):
        t = tseitin_from_text("e 1 2\np tseitin 2 1\ng 1 1\n")
        assert t == TseitinFormula(Graph(2, ((0, 1),)), (1, 1))

    def test_deterministic_export(self):
        t = TseitinFormula(fam.complete(4), unit_charge(4, 0))
        assert cnf_to_dimacs(to_cnf(t)) == cnf_to_dimacs(to_cnf(t))
