"""Acceptance suite: one test per exit criterion, exact tolerances,
one pass/fail line each (visible with `pytest -s tests/test_acceptance.py`).
"""

import itertools
import random
import time
import zlib

import pytest

from lemmas import (
    SubConstraint,
    compile_all_pairs,
    conjoin_models,
    conjoin_subconstraints_count,
    enumerate_proof_trees,
    extract_balanced_cover,
    game_simulate,
    gate_rectangle,
    induced_subconstraint,
    k4_with_pendant_path,
    mask_of,
    nnf_truth_table,
    octahedron,
    sample_charges,
    tseitin_truth_table,
)
from mutations import corrupt
from tseitinkit import families as fam
from tseitinkit.bp import build_well_structured_bp
from tseitinkit.compiler import compile_bp_to_dnnf, pipeline
from tseitinkit.graphs import Graph, SplitRequest, is_connected, split_all
from tseitinkit.minors import three_connected_minor
from tseitinkit.nnf import smooth
from tseitinkit.resolution import check_refutation, check_regularity, dpll_refute
from tseitinkit.tseitin import (
    TseitinFormula,
    model_count,
    to_cnf,
    unit_charge,
)
from tseitinkit.width import treewidth_exact


END_TO_END_FAMILY = [
    ("C3", fam.cycle(3)), ("C4", fam.cycle(4)), ("C5", fam.cycle(5)), ("C6", fam.cycle(6)),
    ("P2", fam.path(2)), ("P3", fam.path(3)), ("P4", fam.path(4)), ("P5", fam.path(5)),
    ("K4", fam.complete(4)), ("K5", fam.complete(5)), ("W4", fam.wheel(4)),
    ("grid2x3", fam.grid(2, 3)), ("grid3x3", fam.grid(3, 3)), ("Q3", fam.cube(3)),
    ("bowtie", fam.bowtie()), ("twoK4", fam.two_k4_shared_edge()),
]

SAFE_SPLIT_GRAPHS = [
    ("K4", fam.complete(4)), ("K5", fam.complete(5)), ("W4", fam.wheel(4)),
    ("W5", fam.wheel(5)), ("Q3", fam.cube(3)), ("octahedron", octahedron()),
]


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS{('  [' + detail + ']') if detail else ''}")


def smooth_compiled(g: Graph):
    _, d, _ = pipeline(g, unit_charge(g.n, 0), tuple([0] * g.n))
    return smooth(d)


class TestAcceptance:
    def test_a1_end_to_end_equivalence(self):
        start = time.monotonic()
        for name, g in END_TO_END_FAMILY:
            report_row, d, _ = pipeline(g, unit_charge(g.n, 0), tuple([0] * g.n))
            target = TseitinFormula(g, tuple([0] * g.n))
            assert nnf_truth_table(d) == tseitin_truth_table(target), name
            assert report_row.model_count_circuit == 1 << (g.m - g.n + 1), name
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report("A1 end-to-end equivalence", f"{len(END_TO_END_FAMILY)} graphs in {elapsed:.1f}s")

    def test_a2_size_accounting(self):
        worst = 0.0
        for name, g in END_TO_END_FAMILY:
            c = unit_charge(g.n, 0)
            bp = build_well_structured_bp(g, c)
            details = compile_all_pairs(bp, g, c)
            d = compile_bp_to_dnnf(bp, g, c, 0)
            assert details.added_gates <= details.added_gate_budget, name
            assert details.added_gates <= 3 * bp.size * g.n, name
            assert d.size <= 3 * bp.size * g.n, name
            # the root demands one vertex per node (see `compiler`)
            assert d.size <= 3 * len(bp.decisions), name
            assert d.node_count <= 3 * bp.size + 2 * g.m + 1, name
            worst = max(worst, details.added_gates / (3 * bp.size * g.n))
        report("A2 size accounting", f"worst budget use {worst:.2f}")

    def test_a3_counting_propositions(self):
        disconnected = [
            Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))),
            Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4))),
            Graph(4, ((0, 1), (2, 3))),
            Graph(8, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7))),
            Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (5, 6))),
        ]
        pairs = 0
        disconnected_pairs = 0
        for gi, (name, g) in enumerate(END_TO_END_FAMILY):
            for charge in sample_charges(g.n, 12, seed=gi):
                t = TseitinFormula(g, charge)
                assert model_count(t) == tseitin_truth_table(t).bit_count()
                pairs += 1
        for gi, g in enumerate(disconnected):
            for charge in sample_charges(g.n, 12, seed=100 + gi):
                t = TseitinFormula(g, charge)
                assert model_count(t) == tseitin_truth_table(t).bit_count()
                pairs += 1
                disconnected_pairs += 1
        assert pairs >= 200
        assert disconnected_pairs >= 30
        report("A3 counting propositions", f"{pairs} pairs, {disconnected_pairs} disconnected")

    def test_a4a_subconstraint_constancy(self):
        checked = 0
        for name, g in END_TO_END_FAMILY:
            d = smooth_compiled(g)
            t = TseitinFormula(g, tuple([0] * g.n))
            trees = enumerate_proof_trees(d)
            for gid in range(d.node_count):
                rect = gate_rectangle(d, gid, trees)
                if not rect.a_side or not rect.b_side:
                    continue
                for v in range(g.n):
                    if rect.e1_mask & mask_of(g.incident[v]) and rect.e2_mask & mask_of(g.incident[v]):
                        induced_subconstraint(rect, t, v)  # raises on any violation
                        checked += 1
        report("A4a sub-constraint constancy", f"{checked} (gate, vertex) pairs")

    def _safe_split_sweep(self):
        """Every independent set of size <= 4 with every proper neighbor
        partition, on the six 3-connected bench graphs."""
        for name, g in SAFE_SPLIT_GRAPHS:
            for size in range(1, 5):
                for combo in itertools.combinations(range(g.n), size):
                    if any(v in g.adj[u] for u, v in itertools.combinations(combo, 2)):
                        continue
                    per_vertex = []
                    for v in combo:
                        nb = sorted(g.adj[v])
                        parts = []
                        for bits in range(1, 1 << (len(nb) - 1)):
                            side1 = tuple(x for i, x in enumerate(nb) if (bits >> i) & 1)
                            side2 = tuple(x for x in nb if x not in side1)
                            parts.append((side1, side2))
                        per_vertex.append(parts)
                    for parts in itertools.product(*per_vertex):
                        yield name, g, [SplitRequest(v, *p) for v, p in zip(combo, parts)]

    def test_a4c_safe_split_guarantee(self):
        from tseitinkit.graphs import safe_split_subset

        configs = 0
        for name, g, reqs in self._safe_split_sweep():
            keep = safe_split_subset(g, reqs)
            assert 3 * len(keep) >= len(reqs), (name, reqs)
            split_graph, _ = split_all(g, keep)
            assert is_connected(split_graph), (name, reqs)
            configs += 1
        report("A4c safe split subsets", f"{configs} configurations")

    def test_a4b_conjoin_counts_match_brute_force(self):
        from tseitinkit.graphs import safe_split_subset

        checked = 0
        for name, g, reqs in self._safe_split_sweep():
            keep = safe_split_subset(g, reqs)
            if not keep:
                continue
            t = TseitinFormula(g, tuple([0] * g.n))
            subs = []
            for j, r in enumerate(keep):
                edge_ids = tuple(sorted(g.edges.index((min(r.vertex, u), max(r.vertex, u))) for u in r.side1))
                subs.append(SubConstraint(r.vertex, edge_ids, j % 2))
            assert conjoin_subconstraints_count(t, subs) == len(conjoin_models(t, subs)), (name, subs)
            checked += 1
        report("A4b split counting lemma", f"{checked} configurations")

    def test_a4d_minor_preserves_treewidth(self):
        cases = [
            ("K4", fam.complete(4)), ("K5", fam.complete(5)), ("W4", fam.wheel(4)),
            ("Q3", fam.cube(3)), ("grid3x3", fam.grid(3, 3)), ("twoK4", fam.two_k4_shared_edge()),
            ("k4pendant", k4_with_pendant_path()), ("octahedron", octahedron()),
        ]
        for name, g in cases:
            result = three_connected_minor(g)
            assert treewidth_exact(result.graph) == treewidth_exact(g), name
        report("A4d minor preserves treewidth", f"{len(cases)} composite graphs")

    def test_a5_game_and_cover_bounds(self):
        ratios = {}
        for name, g in END_TO_END_FAMILY:
            if g.m < 3:
                continue
            d = smooth_compiled(g)
            t = TseitinFormula(g, tuple([0] * g.n))
            transcript = game_simulate(d, t)
            assert transcript.round_count <= d.size, name
            cover = extract_balanced_cover(d)
            assert len(cover) <= d.size, name
            union = set()
            for rect in cover:
                union |= rect.models()
            table = nnf_truth_table(d)
            assert union == {m for m in range(1 << g.m) if (table >> m) & 1}, name
            if transcript.cap_round_lower_bound:
                assert transcript.round_count >= transcript.cap_round_lower_bound, name
            ratios[name] = (transcript.round_count, transcript.cap_round_lower_bound)
        # models / max cap: 8/4 on K4 and 32/16 on Q3 force at least two
        # rounds (tighter per-round caps can push the bound higher)
        assert ratios["K4"][1] >= 2 and ratios["K4"][0] >= 2
        assert ratios["Q3"][1] >= 2 and ratios["Q3"][0] >= 2
        ratios = {k: v[0] for k, v in ratios.items()}
        report("A5 game and cover bounds", f"K4 rounds {ratios['K4']}, Q3 rounds {ratios['Q3']}")

    def test_a6_proof_system(self):
        traces = 0
        rejected_total = 0
        for name, g in END_TO_END_FAMILY:
            cnf = to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))
            trace = dpll_refute(cnf)
            result = check_refutation(cnf, trace)
            assert result.ok, name
            assert check_regularity(trace), name
            traces += 1
            rng = random.Random(zlib.crc32(name.encode()))
            rejected = 0
            attempts = 0
            while rejected < 20 and attempts < 200:
                attempts += 1
                mutated = corrupt(trace, rng, cnf.num_vars)
                if mutated == trace:
                    continue
                assert not check_refutation(cnf, mutated).ok, name
                rejected += 1
            assert rejected >= 20, name
            rejected_total += rejected
        report("A6 proof system", f"{traces} traces valid+regular, {rejected_total} corruptions rejected")

    def test_a7_scaling_smoke(self):
        start = time.monotonic()
        bp_sizes = []
        dnnf_sizes = []
        for n in range(4, 13):
            g = fam.cycle(n)
            row, _, _ = pipeline(g, unit_charge(n, 0), tuple([0] * n))
            assert row.equivalence == "equivalent"
            bp_sizes.append(row.bp_size)
            dnnf_sizes.append(row.dnnf_size)
        for sizes in (bp_sizes, dnnf_sizes):
            for a, b in zip(sizes, sizes[1:]):
                assert b <= 1.6 * a, sizes
        for k in range(2, 6):
            g = fam.grid(2, k)
            assert g.m <= 16
            row, _, _ = pipeline(g, unit_charge(g.n, 0), tuple([0] * g.n))
            assert row.equivalence == "equivalent"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        report("A7 scaling smoke test", f"cycles {bp_sizes[0]}..{bp_sizes[-1]} nodes, {elapsed:.1f}s")
