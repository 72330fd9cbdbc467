import pytest
from hypothesis import given, settings, strategies as st

from tseitinkit import families as fam
from tseitinkit.bp import BranchingProgram, build_well_structured_bp, validate_well_structured
from tseitinkit.compiler import compile_bp_to_dnnf, pipeline, retarget
from tseitinkit.graphs import Graph
from tseitinkit.nnf import NnfCircuit, is_smooth, model_count_smooth, models, truth_table, validate_decomposable
from tseitinkit.tseitin import TseitinFormula, brute_force_models, unit_charge


class TestCompileSmall:
    def test_single_edge(self):
        g = fam.path(2)
        bp = build_well_structured_bp(g, (1, 0))
        d = compile_bp_to_dnnf(bp, g, (1, 0), 0)
        # computing T(edge, (1,0) + 1_0) = T(edge, 0): the single model x=0
        assert models(d) == [0]
        assert validate_decomposable(d)

    def test_c3_equivalent_to_zero_charge(self):
        g = fam.cycle(3)
        bp = build_well_structured_bp(g, (1, 0, 0))
        d = compile_bp_to_dnnf(bp, g, (1, 0, 0), 0)
        assert set(models(d)) == set(brute_force_models(TseitinFormula(g, (0, 0, 0))))

    def test_rejects_invalid_program(self):
        # swapping the source's wires sends each literal to the other's
        # forced subformula
        g = fam.cycle(3)
        bp = build_well_structured_bp(g, (1, 0, 0))
        var, lo, hi = bp.decisions[bp.source]
        swapped = BranchingProgram(bp.source, {**bp.decisions, bp.source: (var, hi, lo)}, bp.sinks)
        with pytest.raises(ValueError, match="not well-structured: condition 3"):
            compile_bp_to_dnnf(swapped, g, (1, 0, 0), 0)


class TestSizeAccounting:
    def test_gate_budget(self, bench_graph):
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        d, details = compile_bp_to_dnnf(bp, g, c, 0, with_details=True)
        assert details.added_gates <= details.added_gate_budget
        assert details.added_gate_budget <= 3 * bp.size * g.n
        assert d.size <= details.added_gates


class TestInvariantPerNode:
    @pytest.mark.parametrize("make", [lambda: fam.cycle(4), lambda: fam.complete(4), fam.bowtie],
                             ids=["C4", "K4", "bowtie"])
    def test_every_gate_computes_shifted_formula(self, make):
        g = make()
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        ann = validate_well_structured(bp, g, c).annotations
        _, details = compile_bp_to_dnnf(bp, g, c, 0, with_details=True)
        for node, per_vertex in details.vertex_gate.items():
            vertices, edge_ids, charge = ann[node]
            for v, gate in per_vertex.items():
                sub = NnfCircuit(details.all_gates, gate, g.m)
                table = truth_table(sub)
                want_charge = dict(charge)
                want_charge[v] ^= 1
                for bits in range(1 << len(edge_ids)):
                    mask = 0
                    for i, e in enumerate(sorted(edge_ids)):
                        if (bits >> i) & 1:
                            mask |= 1 << e
                    expected = all(
                        _parity(g, mask, u, edge_ids) == want_charge[u] for u in vertices
                    )
                    assert bool(table[mask]) == expected


def _parity(g, mask, u, edge_ids):
    par = 0
    for e in g.incident[u]:
        if e in edge_ids:
            par ^= (mask >> e) & 1
    return par


class TestRetarget:
    def test_same_charge_identity(self):
        g = fam.cycle(3)
        _, d, _ = pipeline(g, (1, 0, 0), (0, 0, 0))
        assert retarget(d, g, (0, 0, 0), (0, 0, 0)) == d

    def test_double_retarget_identity(self):
        g = fam.cycle(3)
        _, d, _ = pipeline(g, (1, 0, 0), (0, 0, 0))
        once = retarget(d, g, (0, 0, 0), (1, 1, 0))
        back = retarget(once, g, (1, 1, 0), (0, 0, 0))
        assert back == d

    def test_retarget_to_other_satisfiable_charge(self):
        g = fam.cycle(3)
        _, d, _ = pipeline(g, (1, 0, 0), (0, 0, 0))
        moved = retarget(d, g, (0, 0, 0), (1, 1, 0))
        assert set(models(moved)) == set(brute_force_models(TseitinFormula(g, (1, 1, 0))))


class TestPipeline:
    def test_family_equivalence(self, bench_graph):
        _, g = bench_graph
        report, d, bp = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        assert report.equivalence == "equivalent"
        assert report.model_count_circuit == report.model_count_expected == 1 << (g.m - g.n + 1)
        assert report.ratio_ok

    def test_rejects_bad_charges(self):
        g = fam.cycle(3)
        with pytest.raises(ValueError):
            pipeline(g, (0, 0, 0), (0, 0, 0))  # source must be unsatisfiable
        with pytest.raises(ValueError):
            pipeline(g, (1, 0, 0), (1, 0, 0))  # target must be satisfiable
        with pytest.raises(ValueError):
            pipeline(Graph(4, ((0, 1), (2, 3))), (1, 1, 0, 0), (0, 0, 0, 0))

    def test_cycles_grow_linearly(self):
        sizes = []
        for n in range(4, 9):
            report, _, _ = pipeline(fam.cycle(n), unit_charge(n, 0), (0,) * n)
            sizes.append(report.dnnf_size)
        deltas = [b - a for a, b in zip(sizes, sizes[1:])]
        assert max(deltas) <= 12  # constant gates per added cycle edge

    def test_desk_cap_skips_verification(self):
        g = fam.cycle(4)
        report, _, _ = pipeline(g, unit_charge(4, 0), (0,) * 4, desk_cap=2)
        assert report.equivalence == "skipped"
        assert report.model_count_circuit is None


MIDDLE_TIER = {
    "grid3x6": lambda: fam.grid(3, 6),
    "grid4x4": lambda: fam.grid(4, 4),
    "grid5x5": lambda: fam.grid(5, 5),
    "Q4": lambda: fam.cube(4),
    "rr16": lambda: fam.random_regular(16, 3, 1),
    "W12": lambda: fam.wheel(12),
    "C60": lambda: fam.cycle(60),
}


class TestSmoothAsBuilt:
    """The gate for (k, v) mentions exactly the edges of G_k, so compiled
    circuits are smooth without a smoothing pass."""

    def test_gate_variables_are_the_subgraph_edges(self, bench_graph):
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        _, details = compile_bp_to_dnnf(bp, g, c, 0, with_details=True)
        masks = NnfCircuit(details.all_gates, len(details.all_gates) - 1, g.m).var_masks
        annotations = validate_well_structured(bp, g, c).annotations
        for k, gates in details.vertex_gate.items():
            edges = sum(1 << e for e in annotations[k][1])
            assert all(masks[gate] == edges for gate in gates.values()), k

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        assert is_smooth(d)

    @pytest.mark.parametrize("name", MIDDLE_TIER)
    def test_middle_tier(self, name):
        g = MIDDLE_TIER[name]()
        report, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n, desk_cap=0)
        assert is_smooth(d) and validate_decomposable(d)
        assert model_count_smooth(d) == report.model_count_expected == 1 << (g.m - g.n + 1)


class TestPipelineProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_connected_instances(self, data):
        from tseitinkit.graphs import is_connected
        from tseitinkit.tseitin import is_satisfiable

        n = data.draw(st.integers(min_value=2, max_value=6))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        extra = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        spine = [(i, i + 1) for i in range(n - 1)]  # keep it connected
        g = Graph(n, tuple(sorted(set(spine) | set(extra))))
        assert is_connected(g)
        c_unsat = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        if is_satisfiable(TseitinFormula(g, c_unsat)):
            c_unsat = (c_unsat[0] ^ 1,) + c_unsat[1:]
        c_star = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        if not is_satisfiable(TseitinFormula(g, c_star)):
            c_star = (c_star[0] ^ 1,) + c_star[1:]
        report, d, bp = pipeline(g, c_unsat, c_star)
        assert report.equivalence == "equivalent"
        assert report.ratio_ok
