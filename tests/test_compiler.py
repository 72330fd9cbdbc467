import gc
import hashlib
import random
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import annotation_sets, build_bp_by_rule, compile_all_pairs, demanded_vertices, models, nnf_truth_table, propagate_constants, same_circuit, tseitin_truth_table
from tseitinkit import families as fam
from tseitinkit.bounds import certificate_from_text, certificate_to_text, certified_lower_bound, verify_certificate
from tseitinkit.bp import BranchingProgram, bp_from_text, bp_to_text, build_well_structured_bp, validate_well_structured
from tseitinkit.cnf import cnf_from_dimacs, cnf_to_dimacs
from tseitinkit.compiler import compile_bp_to_dnnf, pipeline, retarget
from tseitinkit.graphs import Graph, graph_from_text, graph_to_text
from tseitinkit.minors import three_connected_minor
from tseitinkit.nnf import CONST, Gate, NnfCircuit, is_smooth, model_count_smooth, nnf_from_text, nnf_to_text, smooth, validate_decomposable
from tseitinkit.resolution import check_refutation, check_regularity, dpll_refute, trace_from_text, trace_to_text
from tseitinkit.tseitin import TseitinFormula, to_cnf, tseitin_from_text, tseitin_to_text, unit_charge


class TestCompileSmall:
    def test_single_edge(self):
        g = fam.path(2)
        bp = build_well_structured_bp(g, (1, 0))
        d = compile_bp_to_dnnf(bp, g, (1, 0), 0)
        # computing T(edge, (1,0) + 1_0) = T(edge, 0): the single model x=0
        assert models(nnf_truth_table(d)) == [0]
        assert validate_decomposable(d)

    def test_c3_equivalent_to_zero_charge(self):
        g = fam.cycle(3)
        bp = build_well_structured_bp(g, (1, 0, 0))
        d = compile_bp_to_dnnf(bp, g, (1, 0, 0), 0)
        assert set(models(nnf_truth_table(d))) == set(models(tseitin_truth_table(TseitinFormula(g, (0, 0, 0)))))

    def test_no_edge_compiles_to_constant_one(self):
        # m = 0: the source is a sink, and the circuit is its constant 1
        g = Graph(1, ())
        report, d, _ = pipeline(g, (1,), (0,))
        assert d.gates == (Gate(CONST, 1),) and d.size == 0
        assert report.equivalence == "equivalent" and report.model_count_circuit == 1

    def test_rejects_invalid_program(self):
        # swapping the source's wires sends each literal to the other's
        # forced subformula
        g = fam.cycle(3)
        bp = build_well_structured_bp(g, (1, 0, 0))
        var, lo, hi = bp.decisions[bp.source]
        swapped = BranchingProgram(bp.source, {**bp.decisions, bp.source: (var, hi, lo)}, bp.sinks)
        with pytest.raises(ValueError, match="not well-structured: condition 3"):
            compile_bp_to_dnnf(swapped, g, (1, 0, 0), 0)


    @pytest.mark.parametrize("root_vertex", [-1, 3])
    def test_root_vertex_out_of_range(self, root_vertex):
        g = fam.cycle(3)
        bp = build_well_structured_bp(g, (1, 0, 0))
        with pytest.raises(ValueError, match="^root vertex out of range$"):
            compile_bp_to_dnnf(bp, g, (1, 0, 0), root_vertex)

class TestSizeAccounting:
    def test_gate_budget(self, bench_graph):
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        details = compile_all_pairs(bp, g, c)
        d = compile_bp_to_dnnf(bp, g, c, 0)
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
        details = compile_all_pairs(bp, g, c)
        for node, per_vertex in details.vertex_gate.items():
            vertices, edge_ids, charge = annotation_sets(ann[node])
            for v, gate in per_vertex.items():
                sub = NnfCircuit(details.all_gates, gate, g.m)
                table = nnf_truth_table(sub)
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
                    assert bool((table >> mask) & 1) == expected


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
        assert set(models(nnf_truth_table(moved))) == set(models(tseitin_truth_table(TseitinFormula(g, (1, 1, 0)))))


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

    @pytest.mark.parametrize("g, c_unsat, searches", [
        (fam.grid(5, 5), unit_charge(25, 0), 1),  # target = compiled charge: no flip, no tree
        (fam.cycle(60), unit_charge(60, 0), 1),
        (fam.grid(3, 3), unit_charge(9, 4), 2),  # one flip pair: plus the spanning tree
    ])
    def test_one_component_search_per_graph(self, monkeypatch, g, c_unsat, searches):
        # the satisfiability, connectivity and retarget checks of one call
        # all read `Graph.components`
        import tseitinkit.graphs
        import tseitinkit.tseitin

        calls = []
        real = tseitinkit.graphs.search

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(tseitinkit.graphs, "search", counted)
        monkeypatch.setattr(tseitinkit.tseitin, "search", counted)
        g = Graph(g.n, g.edges)
        report, _, _ = pipeline(g, c_unsat, (0,) * g.n)
        assert report.ratio_ok
        assert len(calls) == searches


MIDDLE_TIER = {
    "grid3x6": lambda: fam.grid(3, 6),
    "grid4x4": lambda: fam.grid(4, 4),
    "grid5x5": lambda: fam.grid(5, 5),
    "Q4": lambda: fam.cube(4),
    "rr16": lambda: fam.random_regular(16, 3, 1),
    "W12": lambda: fam.wheel(12),
    "C60": lambda: fam.cycle(60),
}


def random_connected_graph(seed: int) -> Graph:
    """A random spanning tree on 4..14 vertices plus up to n chords."""
    rng = random.Random(zlib.crc32(f"demand {seed}".encode()))
    n = rng.randint(4, 14)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, tuple(sorted(edges)))


def folded_reference(details, root_vertex: int) -> NnfCircuit:
    """The trimmed all-pairs reference with its sinks' constants folded,
    which the compile folds as it builds."""
    return propagate_constants(details.circuit(root_vertex))


def assert_demand_driven(g: Graph):
    """At every root vertex, the compile equals the trimmed all-pairs
    reference with its constants folded, up to gate numbering, and the
    root demands one vertex per node."""
    c = unit_charge(g.n, 0)
    bp = build_well_structured_bp(g, c)
    details = compile_all_pairs(bp, g, c)
    for r in range(g.n):
        assert same_circuit(compile_bp_to_dnnf(bp, g, c, r), folded_reference(details, r)), r
        assert all(len(vs) == 1 for vs in demanded_vertices(details, r).values()), r


class TestDemandDriven:
    def test_desk_family(self, bench_graph):
        assert_demand_driven(bench_graph[1])

    @pytest.mark.parametrize("name", MIDDLE_TIER)
    def test_middle_tier(self, name):
        assert_demand_driven(MIDDLE_TIER[name]())

    @pytest.mark.parametrize("block", range(4))
    def test_random_connected_graphs(self, block):
        for seed in range(20 * block, 20 * block + 20):
            assert_demand_driven(random_connected_graph(seed))

    @pytest.mark.parametrize("name", MIDDLE_TIER)
    def test_size_per_decision_node(self, name):
        g = MIDDLE_TIER[name]()
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        d = compile_bp_to_dnnf(bp, g, c, 0)
        annotations = validate_well_structured(bp, g, c).annotations
        assert d.size <= 3 * sum(annotations[k][0].bit_count() for k in bp.topological()) <= 3 * bp.size * g.n
        assert d.size <= 3 * len(bp.decisions)
        assert d.node_count <= 3 * bp.size + 2 * g.m + 1

    def test_same_circuit_tells_roots_apart(self):
        # the comparison the tests above rest on: the reference renumbered
        # is the same circuit, the circuit for another root vertex is not
        g = fam.grid(2, 3)
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        details = compile_all_pairs(bp, g, c)
        d0, d1 = (compile_bp_to_dnnf(bp, g, c, r) for r in (0, 1))
        assert same_circuit(d0, folded_reference(details, 0)) and same_circuit(d1, folded_reference(details, 1))
        assert not same_circuit(d0, d1) and not same_circuit(d0, folded_reference(details, 1))

    def test_diamond_demands_two_vertices(self):
        """A well-structured program that does not decide by one edge
        ranking: two paths reach the node ({2, 3}, {23}, c_2 = 1) through
        different bridges, so the root demands it at both vertices; the
        compile still equals the reference and computes T(G, c + 1_r)."""
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
        c = (1, 0, 0, 0)
        cycle = frozenset({0, 2, 3, 4})

        def choose(ann):
            # chord 02 first; then 03 before 12 on x02 = 0, 12 before 03 on x02 = 1
            _, edge_ids, charge = ann
            prefer = (2, 3) if edge_ids == cycle and charge[0] == 1 else (1, 3, 2)
            return next(e for e in prefer + tuple(sorted(edge_ids)) if e in edge_ids)

        bp = build_bp_by_rule(g, c, choose)
        annotations = validate_well_structured(bp, g, c).annotations
        details = compile_all_pairs(bp, g, c)
        demand = demanded_vertices(details, 0)
        (k,) = [k for k, ann in annotations.items() if ann == (0b1100, 1 << 4, 0b0100)]  # ({2, 3}, {23}, c_2 = 1)
        assert demand[k] == [2, 3]
        for r in range(g.n):
            d = compile_bp_to_dnnf(bp, g, c, r)
            assert same_circuit(d, folded_reference(details, r))
            shifted = tuple(x ^ (v == r) for v, x in enumerate(c))
            assert set(models(nnf_truth_table(d))) == set(models(tseitin_truth_table(TseitinFormula(g, shifted))))


def _dpll_checked(x):
    trace = dpll_refute(x.cnf)
    assert check_refutation(x.cnf, trace) and check_regularity(trace)


def _certify_and_verify(x):
    assert verify_certificate(certified_lower_bound(x.g), x.g) == (True, "ok")


# Each library entry point, on grid 3x4 (m = 17); `x` holds its inputs and
# their texts, made before the collector is switched off.
ENTRY_POINTS = {
    "build": lambda x: build_well_structured_bp(x.g, x.c),
    "compile": lambda x: compile_bp_to_dnnf(x.bp, x.g, x.c, 0),
    "dpll": lambda x: dpll_refute(x.cnf),
    "dpll-checked": _dpll_checked,
    "pipeline": lambda x: pipeline(x.g, x.c, (0,) * x.g.n),
    "pipeline-verified": lambda x: pipeline(x.g, x.c, (0,) * x.g.n, desk_cap=x.g.m),
    "certify-and-verify": _certify_and_verify,
    "three-connected-minor": lambda x: three_connected_minor(x.g),
    "graph_from_text": lambda x: graph_from_text(x.texts["graph"]),
    "tseitin_from_text": lambda x: tseitin_from_text(x.texts["tseitin"]),
    "cnf_from_dimacs": lambda x: cnf_from_dimacs(x.texts["cnf"]),
    "bp_from_text": lambda x: bp_from_text(x.texts["bp"]),
    "nnf_from_text": lambda x: nnf_from_text(x.texts["nnf"]),
    "trace_from_text": lambda x: trace_from_text(x.texts["trace"]),
    "certificate_from_text": lambda x: certificate_from_text(x.texts["certificate"]),
}


class TestFreedOnReturn:
    """No entry point leaves cyclic garbage: everything a call made is
    freed when it returns, not at the next cyclic collection.  The three
    memoized recursions (build, compile, DPLL) run through `recursion.run`,
    whose generators never name themselves; a closure that called itself
    would be a reference cycle holding its memo (the rr60 program's text
    took ~20 MB more peak memory while the builder's memo waited)."""

    @pytest.fixture(scope="class")
    def inputs(self):
        g = fam.grid(3, 4)
        c = unit_charge(g.n, 0)
        t = TseitinFormula(g, c)
        cnf = to_cnf(t)
        bp = build_well_structured_bp(g, c)
        _, d, _ = pipeline(g, c, (0,) * g.n)
        texts = {
            "graph": graph_to_text(g), "tseitin": tseitin_to_text(t), "cnf": cnf_to_dimacs(cnf),
            "bp": bp_to_text(bp), "nnf": nnf_to_text(d), "trace": trace_to_text(dpll_refute(cnf)),
            "certificate": certificate_to_text(certified_lower_bound(g)),
        }
        return SimpleNamespace(g=g, c=c, cnf=cnf, bp=bp, texts=texts)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_leaves_no_cyclic_garbage(self, inputs, name):
        gc.collect()
        gc.disable()
        try:
            ENTRY_POINTS[name](inputs)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSmoothAsBuilt:
    """The gate for (k, v) mentions exactly the edges of G_k, so compiled
    circuits are smooth without a smoothing pass."""

    def test_gate_variables_are_the_subgraph_edges(self, bench_graph):
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        details = compile_all_pairs(bp, g, c)
        masks = NnfCircuit(details.all_gates, len(details.all_gates) - 1, g.m).var_masks
        annotations = validate_well_structured(bp, g, c).annotations
        for k, gates in details.vertex_gate.items():
            assert all(masks[gate] == annotations[k][1] for gate in gates.values()), k

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        assert_nothing_to_fold_or_pad(d)

    @pytest.mark.parametrize("make", [*MIDDLE_TIER.values(), lambda: fam.grid(4, 5)], ids=[*MIDDLE_TIER, "grid4x5"])
    def test_middle_tier(self, make):
        g = make()
        report, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n, desk_cap=0)
        assert_nothing_to_fold_or_pad(d)
        assert model_count_smooth(d) == report.model_count_expected == 1 << (g.m - g.n + 1)


def assert_nothing_to_fold_or_pad(d: NnfCircuit):
    """The sinks' constants are folded as built and the circuit is smooth,
    so folding copies it gate for gate and smoothing returns it."""
    assert all(gate.kind != CONST for gate in d.gates)
    assert is_smooth(d) and validate_decomposable(d)
    assert propagate_constants(d) == d
    assert smooth(d) is d


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


class TestPinnedOutputs:
    """Program and circuit text on two graphs past the desk tier, pinned by
    size and sha256[:16]: a change to the annotations, the builder's memo,
    its edge order or the compiler that moves a node or a gate shows up
    here."""

    @pytest.mark.parametrize("make, nodes, gates, bp_digest, nnf_digest", [
        (lambda: fam.grid(8, 8), 6089, 11413, "0a273fe87235dbf5", "bd0e4af354df7131"),
        (lambda: fam.random_regular(40, 3, 1), 23703, 41017, "7126eeea3beca427", "c48f1ea4dab506bd"),
    ], ids=["grid8x8", "rr40"])
    def test_text_digests(self, make, nodes, gates, bp_digest, nnf_digest):
        g = make()
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        d = compile_bp_to_dnnf(bp, g, c, 0)
        assert (bp.size, d.size) == (nodes, gates)
        assert hashlib.sha256(bp_to_text(bp).encode()).hexdigest()[:16] == bp_digest
        assert hashlib.sha256(nnf_to_text(d).encode()).hexdigest()[:16] == nnf_digest

    @pytest.mark.parametrize("make, gates, nnf_digest", [
        (lambda: fam.grid(5, 5), 677, "f7aa03e9eb3d6884"),
        (lambda: fam.cycle(60), 119, "55231e8c666ecf5d"),
    ], ids=["grid5x5", "cycle60"])
    def test_pipeline_circuit_digests(self, make, gates, nnf_digest):
        # the pipeline's circuit, as the benchmark's compile workload builds
        # it: it has no constant to fold and is smooth, so smoothing returns it
        g = make()
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        assert smooth(d) is d
        assert d.size == gates
        assert hashlib.sha256(nnf_to_text(d).encode()).hexdigest()[:16] == nnf_digest
