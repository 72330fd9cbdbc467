import dataclasses
import hashlib
import random

import pytest

from lemmas import (
    caterpillar,
    edges_below,
    enumerate_proof_trees,
    extract_balanced_cover,
    game_simulate,
    gate_rectangle,
    induced_subconstraint,
    is_rectangle,
    mask_of,
    max_order_cut,
    models,
    nnf_truth_table,
    proof_tree_vtree,
    rectangle_cap_check,
    subdivided,
    tseitin_truth_table,
)
from tseitinkit import families as fam, graphs, width
from tseitinkit.bounds import LowerBoundCertificate, _chain, adam_response, certificate_from_text, certificate_to_text, certified_lower_bound, graph_hash, verify_certificate
from tseitinkit.cli import pipeline_row
from tseitinkit.compiler import pipeline
from tseitinkit.graphs import Graph, _separating_vertices as separating_vertices, graph_to_text
from tseitinkit.nnf import CircuitBuilder, smooth
from tseitinkit.tseitin import TseitinFormula, unit_charge
from tseitinkit.width import edge_order, order_cut, treewidth_exact


MIDDLE_TIER = {
    "grid3x6": lambda: fam.grid(3, 6),
    "grid4x4": lambda: fam.grid(4, 4),
    "grid5x5": lambda: fam.grid(5, 5),
    "Q4": lambda: fam.cube(4),
    "rr16": lambda: fam.random_regular(16, 3, 1),
    "W12": lambda: fam.wheel(12),
    "C60": lambda: fam.cycle(60),
}


# sha256 of certificate_to_text(certified_lower_bound(g)), as the
# caterpillar's maximum-order cut over the minor's edge_order wrote it
CERTIFICATE_DIGESTS = {
    "K4": (lambda: fam.complete(4), "b5e9f2584fafcadeb44ec3d7f3bbc5d3e917c5b8a66c1c90cded922f0c20758a"),
    "K6": (lambda: fam.complete(6), "2c6d07fe6f2fe40d14dfee6849c06e806327686d74bb9f2fb685bea5d1ca9c51"),
    "W8": (lambda: fam.wheel(8), "be61e5a3fc27d1f70af284adbaaff559ff57b59171dfff7f994a30f05526370e"),
    "Q4": (lambda: fam.cube(4), "72d7913f863d9f655e4a2b5f0af9a941e68fae1ff2d28c810fb72e72ddf7078a"),
    "grid4x5": (lambda: fam.grid(4, 5), "dac7d48d64c3061b60e6399f4f6d5ba1a60d732a02812878db8c5fce5fa4d9eb"),
    "grid5x5": (lambda: fam.grid(5, 5), "d41ad64ff976acc0a4072b84bcf17c2665b4a9a859142f362d4e9929876f367b"),
    "rr16": (lambda: fam.random_regular(16, 3, 1), "91d8f62edf6c594f0c65cdcabbf2b9ef93e167d19e2ce5dd70958ebd181f23c4"),
    "grid8x8": (lambda: fam.grid(8, 8), "8b7837b58e8c7b3abbe8dc196e42ccc8325958d09f3f2d082a838d19f4a03052"),
    "grid12x12": (lambda: fam.grid(12, 12), "51baac3dc4690cd3a2a608c2c944bcf235c2f252b738f8c109c271d7db033484"),
    # n 52, m 54
    "subK4_8": (lambda: subdivided(fam.complete(4), 8), "fb2ee4dbc92af1315755f05e3c10d911b4d83b0a777e880687a96b56a99832e9"),
}

# n = 20, past the exact cap, with a 13-vertex minor: the graph's
# minor-min-degree bound is 4, its min-fill bound 5, and the minor's exact
# treewidth 5
MMD_BELOW_MINOR = Graph(20, (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 15), (1, 10), (1, 14), (1, 18), (2, 5), (2, 15), (2, 17), (3, 6),
    (3, 8), (3, 9), (3, 10), (3, 15), (3, 18), (4, 11), (4, 13), (4, 17), (5, 12), (5, 15), (5, 16), (5, 19),
    (6, 7), (6, 13), (7, 9), (7, 11), (8, 19), (11, 12), (11, 14), (13, 14), (13, 15), (15, 16), (15, 18),
))


def random_connected(seed: int) -> Graph:
    """A seeded random spanning tree on 4..28 vertices plus chords."""
    rng = random.Random(f"round trip {seed}")
    n = rng.randint(4, 28)
    density = rng.choice([0.05, 0.1, 0.2, 0.35])
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    return Graph(n, tuple(sorted(edges)))


def glued(a: Graph, b: Graph) -> Graph:
    """a and b sharing one vertex: b's vertex 0 is a's last vertex."""
    shift = a.n - 1
    return Graph(a.n + b.n - 1, tuple(sorted(a.edges + tuple((u + shift, v + shift) for u, v in b.edges))))


def smooth_pipeline(g):
    _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
    return smooth(d), TseitinFormula(g, (0,) * g.n)


class TestIsRectangle:
    def test_c3_models_not_a_product(self):
        assert is_rectangle({0b000, 0b111}, mask_of([0, 1]), mask_of([2]), 3) is None

    def test_singleton(self):
        rect = is_rectangle({0b000}, mask_of([0, 1]), mask_of([2]), 3)
        assert rect is not None and rect.size == 1

    def test_full_cube_every_partition(self):
        cube = set(range(8))
        for e1 in ([0], [1], [0, 1], [0, 2]):
            e2 = [e for e in range(3) if e not in e1]
            rect = is_rectangle(cube, mask_of(e1), mask_of(e2), 3)
            assert rect is not None and rect.size == 8


class TestInducedSubconstraint:
    # C3 edges: e0 = {0,1}, e1 = {1,2}, e2 = {0,2}; E1 = the edges at
    # vertex 0, so vertices 1 and 2 sit on the boundary

    def test_singleton_zero(self):
        t = TseitinFormula(fam.cycle(3), (0, 0, 0))
        rect = is_rectangle({0b000}, mask_of([0, 2]), mask_of([1]), 3)
        sub = induced_subconstraint(rect, t, 1)
        assert sub.vertex == 1 and sub.edge_ids == (0,) and sub.parity == 0

    def test_singleton_one(self):
        t = TseitinFormula(fam.cycle(3), (0, 0, 0))
        rect = is_rectangle({0b111}, mask_of([0, 2]), mask_of([1]), 3)
        sub = induced_subconstraint(rect, t, 1)
        assert sub.parity == 1

    def test_requires_boundary_vertex(self):
        t = TseitinFormula(fam.cycle(3), (0, 0, 0))
        rect = is_rectangle({0b000}, mask_of([0, 2]), mask_of([1]), 3)
        with pytest.raises(ValueError):
            induced_subconstraint(rect, t, 0)  # both edges of vertex 0 are in E1

    def test_requires_models_inside(self):
        t = TseitinFormula(fam.cycle(3), (0, 0, 0))
        rect = is_rectangle({0b001}, mask_of([0, 2]), mask_of([1]), 3)
        with pytest.raises(ValueError):
            induced_subconstraint(rect, t, 1)

    @pytest.mark.parametrize("make", [lambda: fam.cycle(3), lambda: fam.complete(4), lambda: fam.cube(3)],
                             ids=["C3", "K4", "Q3"])
    def test_constancy_on_every_gate_rectangle(self, make):
        g = make()
        d, t = smooth_pipeline(g)
        trees = enumerate_proof_trees(d)
        for gid in range(d.node_count):
            rect = gate_rectangle(d, gid, trees)
            if not rect.a_side or not rect.b_side:
                continue
            for v in range(g.n):
                e1v = rect.e1_mask & mask_of(g.incident[v])
                e2v = rect.e2_mask & mask_of(g.incident[v])
                if e1v and e2v:
                    induced_subconstraint(rect, t, v)  # raises on violation


class TestAdamResponse:
    def test_k4_over_sampled_decompositions(self):
        g = fam.complete(4)
        for seed in range(15):
            order = list(range(g.m))
            random.Random(seed).shuffle(order)
            resp = adam_response(g, max_order_cut(caterpillar(order), g).e1)
            assert len(resp.v_prime) >= 2
            assert len(resp.v_star) >= 1
            assert resp.cap_exponent <= 2  # cap 4 < 8 total models

    def test_q3_heuristic_decomposition(self):
        g = fam.cube(3)
        resp = adam_response(g, order_cut(g, edge_order(g)))
        assert len(resp.v_star) >= 1
        assert resp.cap_exponent <= 4  # cap 16 < 32 total models

    def test_w4_star_separating_decomposition(self):
        g = fam.wheel(4)
        # edges at rim vertices 0 and 2 first, so one cut splits them off
        side = sorted(set(g.incident[0]) | set(g.incident[2]))
        rest = [e for e in range(g.m) if e not in side]
        resp = adam_response(g, max_order_cut(caterpillar(side + rest), g).e1)
        assert len(resp.v_star) >= 1
        assert resp.cap_exponent < g.m - g.n + 1

    def test_rejects_non_3_connected(self):
        g = fam.cycle(4)
        with pytest.raises(ValueError):
            adam_response(g, order_cut(g, edge_order(g)))


class TestRectangleCapCheck:
    def test_singleton_always_holds(self):
        g = fam.complete(4)
        t = TseitinFormula(g, (0,) * 4)
        resp = adam_response(g, order_cut(g, edge_order(g)))
        e1 = mask_of(resp.e1)
        model = models(tseitin_truth_table(t))[0]
        rect = is_rectangle({model}, e1, (1 << g.m) - 1 & ~e1, g.m)
        assert rectangle_cap_check(t, resp, rect)

    def test_partition_mismatch_rejected(self):
        g = fam.complete(4)
        t = TseitinFormula(g, (0,) * 4)
        resp = adam_response(g, order_cut(g, edge_order(g)))
        e1 = mask_of(resp.e1)
        rect = is_rectangle({models(tseitin_truth_table(t))[0]}, (1 << g.m) - 1 & ~e1, e1, g.m)
        with pytest.raises(ValueError):
            rectangle_cap_check(t, resp, rect)

    def test_gate_sweep_k4(self):
        g = fam.complete(4)
        d, t = smooth_pipeline(g)
        trees = enumerate_proof_trees(d)
        resp = adam_response(g, max_order_cut(_vtree_matching(d, t), g).e1)
        want_e1 = mask_of(resp.e1)
        trees_checked = 0
        for gid in range(d.node_count):
            rect = gate_rectangle(d, gid, trees)
            if not rect.a_side or not rect.b_side:
                continue
            if rect.e1_mask == want_e1:
                assert rectangle_cap_check(t, resp, rect)
                trees_checked += 1
        assert trees_checked > 0


def _vtree_matching(d, t):
    """A variable tree from the circuit's own first proof tree, so some
    gate rectangles share the adversary's partition."""
    vtree, _ = proof_tree_vtree(d, min(models(nnf_truth_table(d))))
    return vtree


class TestChain:
    @pytest.mark.parametrize("max_degree", range(3, 9))
    def test_closed_form(self, max_degree):
        # nested ceilings of positive divisors fold into one:
        # bw = ceil(2 tw / 3), k = ceil(2 tw / (9 (max_degree + 1)))
        for tw in range(41):
            assert _chain(tw, max_degree) == (-(-2 * tw // 3), -(-2 * tw // (9 * (max_degree + 1))))

    @pytest.mark.parametrize("max_degree, tw", [(3, 19), (4, 23)])
    def test_k_first_reaches_2(self, max_degree, tw):
        """The thresholds README and ROADMAP quote."""
        assert min(t for t in range(41) if _chain(t, max_degree)[1] >= 2) == tw


class TestCertifiedLowerBound:
    def test_k4(self):
        cert = certified_lower_bound(fam.complete(4))
        assert (cert.minor_n, cert.minor_edges, cert.k) == (4, fam.complete(4).edges, 1)

    def test_q3(self):
        cert = certified_lower_bound(fam.cube(3))
        assert cert.k == 1

    def test_path_trivial(self):
        cert = certified_lower_bound(fam.path(5))
        assert cert.k == 0

    def test_chain_invariants(self, bench_graph):
        _, g = bench_graph
        cert = certified_lower_bound(g)
        ok, msg = verify_certificate(cert, g)
        assert ok, msg
        if cert.k:
            assert 3 * len(cert.v_star) >= len(cert.v_second)
            assert (Graph(cert.minor_n, cert.minor_edges).max_degree + 1) * len(cert.v_second) >= len(cert.v_prime)

    def test_bound_below_compiled_circuit(self, bench_graph):
        _, g = bench_graph
        cert = certified_lower_bound(g)
        d, _ = smooth_pipeline(g)
        assert 1 << cert.k <= max(d.size, 1)

    @pytest.mark.parametrize("name", MIDDLE_TIER)
    def test_middle_tier_verifies(self, name):
        # the sample witness on the caterpillar over edge_order reaches k,
        # which is 1 once the treewidth is 3 or more
        g = MIDDLE_TIER[name]()
        cert = certified_lower_bound(g)
        ok, msg = verify_certificate(cert, g)
        assert ok, msg
        assert cert.k == (0 if name == "C60" else 1)

    @pytest.mark.parametrize("name", CERTIFICATE_DIGESTS)
    def test_certificate_text_pinned(self, name):
        make, digest = CERTIFICATE_DIGESTS[name]
        text = certificate_to_text(certified_lower_bound(make()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_graph_hash_is_hashlib_sha256(self):
        # the builtin SHA-256 that `graph_hash` uses gives hashlib's digest
        graphs = [g for _, g in fam.desk()] + [make() for make in MIDDLE_TIER.values()]
        graphs += [fam.random_regular(n, d, seed) for n, d in [(8, 3), (16, 3), (20, 4), (40, 3)] for seed in range(3)]
        graphs.append(Graph(0, ()))
        for g in graphs:
            assert graph_hash(g) == hashlib.sha256(graph_to_text(g).encode()).hexdigest()[:16]

    def test_corrupted_certificate_rejected(self):
        g = fam.complete(4)
        cert = certified_lower_bound(g)
        text = certificate_to_text(cert).replace("k: 1", "k: 2")
        bad = certificate_from_text(text)
        ok, msg = verify_certificate(bad, g)
        assert not ok

    def test_text_round_trip(self, bench_graph):
        _, g = bench_graph
        cert = certified_lower_bound(g)
        assert certificate_from_text(certificate_to_text(cert)) == cert

    @pytest.mark.parametrize("make,own_minor", [
        (lambda: fam.random_regular(16, 3, 1), True), (lambda: fam.complete(5), True), (lambda: fam.wheel(8), True),
        (lambda: fam.grid(4, 4), False), (lambda: fam.two_k4_shared_edge(), False), (lambda: fam.grid(4, 5), False),
    ], ids=["rr16", "K5", "W8", "grid4x4", "twoK4", "grid4x5"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_tampered_treewidth_rejected(self, make, own_minor, delta):
        """The certificate stores no treewidth: a file that states one is
        refused by the reader, and the k it would feed, moved by delta
        (to 0 when delta is -1), by the verifier, which derives k from the
        stored minor."""
        g = make()
        cert = certified_lower_bound(g)
        assert (cert.minor_edges == g.edges) == own_minor
        tw = treewidth_exact(Graph(cert.minor_n, cert.minor_edges))
        with pytest.raises(ValueError, match="^line 8: unknown field 'treewidth'$"):
            certificate_from_text(certificate_to_text(cert) + f"treewidth: {tw + delta}\n")
        tampered = dataclasses.replace(cert, k=cert.k + delta)
        assert verify_certificate(tampered, g) == (False, "k disagrees with the constant chain")

    def test_minor_treewidth_above_the_graphs_lower_bound(self):
        # g's lower bound is 4; the chain reads the minor's exact
        # treewidth, 5, which the verifier recomputes from the stored minor
        g = MMD_BELOW_MINOR
        assert width.treewidth_estimate(g) == (4, "mmd-lower/minfill-upper")
        assert width.treewidth_upper_bound(g) == 5
        cert = certified_lower_bound(g)
        assert (cert.minor_n, cert.k) == (13, 1)
        assert treewidth_exact(Graph(cert.minor_n, cert.minor_edges)) == 5
        assert verify_certificate(cert, g) == (True, "ok")

    def test_csv_treewidth_is_the_graphs(self):
        # the row's treewidth columns are g's estimate, not the minor's exact 5
        row = pipeline_row("mmd", MMD_BELOW_MINOR, "odd-at 0", "zero").split(",")
        assert row[3:5] == ["4", "mmd-lower/minfill-upper"] and row[9] == "1"

    @pytest.mark.parametrize("block", range(4))
    def test_round_trip_on_random_graphs(self, block):
        for seed in range(50 * block, 50 * block + 50):
            g = random_connected(seed)
            cert = certified_lower_bound(g)
            assert verify_certificate(certificate_from_text(certificate_to_text(cert)), g) == (True, "ok"), seed

    @pytest.mark.parametrize("t", [5, 6])
    def test_minor_is_the_side_of_larger_estimate(self, t):
        """Grid t x t with K(t + 1) glued on at a corner: the grid side's
        estimate, its minor-min-degree bound 4 past the exact cap, is below
        the complete side's exact t, so the complete side is the minor and
        the chain reads t.  Ranked by min-fill, t on both sides, the grid
        side won the tie and the chain read only its bound 4."""
        g = glued(fam.grid(t, t), fam.complete(t + 1))
        cert = certified_lower_bound(g)
        h = Graph(cert.minor_n, cert.minor_edges)
        assert h == fam.complete(t + 1)
        assert width.treewidth_estimate(h) == (t, "exact-dp") and width.treewidth_estimate(g)[0] == t
        assert verify_certificate(cert, g) == (True, "ok")

    def test_minor_of_other_treewidth_rejected(self):
        # K4 passes the checks on a stored minor; grid 4x4's witness, whose
        # boundary names vertices up to 10, does not fit it
        g = fam.grid(4, 4)
        k4 = fam.complete(4)
        cert = dataclasses.replace(
            certified_lower_bound(g), minor_n=4, minor_edges=k4.edges,
        )
        assert verify_certificate(cert, g) == (False, "boundary vertex outside the minor")

    def test_q8_forgery_rejected(self):
        """Q8 as its own minor, with a witness of 68 boundary vertices, 9
        independent and 3 safe ones, claiming k = 3: that needs treewidth
        >= 82 at maximum degree 8, and tw(Q8) <= bandwidth(Q8) = 78
        (Harper 1966).  Each stage passes, and the chain on g's min-fill
        bound 101 would give k 3; the chain on the minor's
        minor-min-degree bound 11 gives bw 8 and k 1."""
        g = fam.cube(8)
        assert width.treewidth_estimate(g) == (11, "mmd-lower/minfill-upper")
        assert width.treewidth_upper_bound(g) == 101
        v_prime = tuple(range(68))
        v_second = tuple(v for v in v_prime if bin(v).count("1") % 2 == 0)[:9]  # even weight: independent
        forged = LowerBoundCertificate(graph_hash(g), g.n, g.edges, v_prime, v_second, v_second[:3], 3)
        assert _chain(11, 8) == (8, 1) and _chain(101, 8) == (68, 3) and _chain(81, 8)[1] == 2
        assert verify_certificate(certificate_from_text(certificate_to_text(forged)), g) == (
            False, "k disagrees with the constant chain")


# Each forgery edits the genuine grid 4x4 certificate so that it passes
# every check before the one named; the refusals other tests reach (graph
# hash, k) are left out.  Its minor has 12 vertices and 20
# edges, maximum degree 4 and treewidth 4; the witness chain is
# v_prime (1, 3, 6, 10), v_second = v_star = (1, 3, 6), and 6-10 is a
# minor edge.
FORGERIES = {
    "stored minor is larger than the graph": dict(minor_n=17),
    "stored minor is not a graph: loop at vertex 0": dict(minor_edges=((0, 0),)),
    "stored minor is not 3-connected": dict(minor_edges=fam.cycle(12).edges),
    "witness set repeats a vertex": dict(v_prime=(1, 1, 1), v_second=(1,), v_star=(1,)),
    "boundary vertex outside the minor": dict(v_prime=(1, 3, 6, 10, 12)),
    "independent set not inside the boundary": dict(v_second=(1, 3, 6, 11)),
    "safe subset not inside the independent set": dict(v_star=(1, 3, 6, 10)),
    "witness set is not independent": dict(v_second=(1, 3, 6, 10)),
    "boundary smaller than the branchwidth stage": dict(v_prime=(1, 3), v_second=(1, 3), v_star=(1, 3)),
    "independent stage too small": dict(v_second=(), v_star=()),
    "safe stage too small": dict(v_star=()),
}

# The fields an older format also stored, with their values on the
# genuine grid 4x4 certificate (bw = ceil(2 * 4 / 3), |E| = 20, Δ = 4,
# cap = 20 - 12 - 1 + 1, 2^1; g's size, treewidth and its provenance):
# the verifier derives the chain's from the stored minor and reads none of
# g's, and a file that carries one is refused by the reader, so no stored
# copy can disagree with it.
RETIRED_FIELDS = {
    "bw_lower": 3, "minor_m": 20, "minor_max_degree": 4, "cap_exponent": 8, "bound": 2,
    "n": 16, "m": 24, "treewidth": 4, "tw_provenance": "exact-dp",
}


class TestVerifierRefusals:
    @pytest.fixture(scope="class")
    def genuine(self):
        g = fam.grid(4, 4)
        cert = certified_lower_bound(g)
        h = Graph(cert.minor_n, cert.minor_edges)
        assert (h.n, h.m, h.max_degree, treewidth_exact(h), cert.k) == (12, 20, 4, 4, 1)
        assert (cert.v_prime, cert.v_second, cert.v_star) == ((1, 3, 6, 10), (1, 3, 6), (1, 3, 6))
        assert (6, 10) in cert.minor_edges
        return g, cert

    @pytest.mark.parametrize("message", FORGERIES)
    def test_each_refusal(self, genuine, message):
        g, cert = genuine
        assert verify_certificate(dataclasses.replace(cert, **FORGERIES[message]), g) == (False, message)

    def test_minor_with_more_edges_than_the_graph(self, genuine):
        g, cert = genuine
        k8 = fam.complete(8)  # 28 edges against grid 4x4's 24
        forged = dataclasses.replace(cert, minor_n=k8.n, minor_edges=k8.edges)
        assert verify_certificate(forged, g) == (False, "stored minor is larger than the graph")

    @pytest.mark.parametrize("name", RETIRED_FIELDS)
    def test_retired_field_is_an_unknown_field(self, genuine, name):
        _, cert = genuine
        text = certificate_to_text(cert) + f"{name}: {RETIRED_FIELDS[name]}\n"
        with pytest.raises(ValueError, match=f"^line 8: unknown field '{name}'$"):
            certificate_from_text(text)

    def test_trivial_certificate(self):
        # the reduction of a path ends at one edge, which is not 3-connected
        g = fam.path(5)
        cert = certified_lower_bound(g)
        assert (cert.minor_n, cert.minor_edges, cert.v_prime, cert.v_second, cert.v_star) == (2, ((0, 1),), (), (), ())
        assert cert.k == 0 and verify_certificate(cert, g) == (True, "ok")
        assert verify_certificate(dataclasses.replace(cert, k=1), g) == (False, "stored minor is not 3-connected")
        with pytest.raises(ValueError, match="^line 8: unknown field 'bound'$"):
            certificate_from_text(certificate_to_text(cert) + "bound: 2\n")

    @pytest.mark.parametrize("make", [lambda: fam.complete(5), lambda: fam.cube(4)], ids=["K5", "Q4"])
    def test_repeated_witness_and_any_provenance(self, make):
        """One vertex repeated as often as the genuine boundary has
        vertices would pass the branchwidth stage; and no provenance is
        stored, so a file that states one is refused."""
        g = make()
        cert = certified_lower_bound(g)
        v = cert.v_star[0]
        repeated = dataclasses.replace(cert, v_prime=(v,) * len(cert.v_prime), v_second=(v,), v_star=(v,))
        assert verify_certificate(repeated, g) == (False, "witness set repeats a vertex")
        with pytest.raises(ValueError, match="^line 8: unknown field 'tw_provenance'$"):
            certificate_from_text(certificate_to_text(cert) + "tw_provenance: anything at all\n")


class TestVerifierWork:
    """Separator and exact-treewidth searches in certify and verify: one
    per graph object and question."""

    @pytest.fixture
    def separator_passes(self, monkeypatch):
        passes = []

        def counted(g, removed=-1):
            passes.append(g.n)
            return separating_vertices(g, removed)

        monkeypatch.setattr(graphs, "_separating_vertices", counted)
        return passes

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g.n)
            return treewidth_exact(g)

        monkeypatch.setattr(width, "treewidth_exact", counted)
        return calls

    @pytest.mark.parametrize("make,certify,verify", [
        (lambda: fam.random_regular(16, 3, 1), 17, 17), (lambda: fam.grid(4, 5), 22, 17),
    ], ids=["rr16", "grid4x5"])
    def test_separator_passes(self, separator_passes, make, certify, verify):
        # one search per graph object: the reduction steps stop at their
        # first separator, and after a pair the next step resumes at it;
        # the last search is the minor's 3-connectivity, read again by the
        # adversary and the safe split, and the verifier searches its own
        # copy of the minor once (n + 1 passes)
        cert = certified_lower_bound(make())
        assert len(separator_passes) == certify
        assert verify_certificate(cert, make()) == (True, "ok")
        assert len(separator_passes) == certify + verify

    @pytest.mark.parametrize("make,calls", [
        (lambda: fam.random_regular(16, 3, 1), [16]), (lambda: fam.grid(4, 4), [12]),
    ], ids=["rr16", "grid4x4"])
    def test_exact_treewidth_once_per_distinct_graph(self, exact_calls, make, calls):
        # the verifier computes the stored minor's treewidth and never g's
        cert = certified_lower_bound(make())
        exact_calls.clear()
        assert verify_certificate(cert, make()) == (True, "ok")
        assert exact_calls == calls


class TestGame:
    def test_c3_without_safe_split_cap(self):
        g = fam.cycle(3)
        d, t = smooth_pipeline(g)
        transcript = game_simulate(d, t)
        assert transcript.round_count <= d.size
        assert all(r.cap_exponent is None for r in transcript.rounds)

    def test_k4_round_bounds(self):
        g = fam.complete(4)
        d, t = smooth_pipeline(g)
        transcript = game_simulate(d, t)
        assert 2 <= transcript.round_count <= d.size
        assert transcript.round_lower_bound >= 2
        assert transcript.cap_round_lower_bound == 2  # 8 models / cap 4
        assert all(r.cap_exponent == 2 for r in transcript.rounds)

    def test_q3_round_bounds(self):
        g = fam.cube(3)
        d, t = smooth_pipeline(g)
        transcript = game_simulate(d, t)
        assert 2 <= transcript.round_count <= d.size
        # every per-round cap is at most 16 = 2^(12-8-1+1), so 32 models
        # force at least two rounds; tighter caps only strengthen this
        assert transcript.cap_round_lower_bound >= 2
        assert transcript.round_count >= transcript.cap_round_lower_bound

    def test_single_edge_one_round(self):
        g = fam.path(2)
        d, t = smooth_pipeline(g)
        transcript = game_simulate(d, t)
        assert transcript.round_count == 1

    def test_rounds_cover_everything(self, bench_graph):
        _, g = bench_graph
        if g.m > 12:
            return
        d, t = smooth_pipeline(g)
        transcript = game_simulate(d, t)
        assert sum(r.covered_new for r in transcript.rounds) == transcript.total_models
        if g.m >= 3:
            assert transcript.round_count <= d.size


class TestBalancedCover:
    def test_c3_cover(self):
        g = fam.cycle(3)
        d, _ = smooth_pipeline(g)
        cover = extract_balanced_cover(d)
        assert len(cover) <= d.size
        union = set()
        for rect in cover:
            union |= rect.models()
        assert union == set(models(nnf_truth_table(d)))

    def test_k4_cover_at_least_two(self):
        g = fam.complete(4)
        d, _ = smooth_pipeline(g)
        cover = extract_balanced_cover(d)
        assert 2 <= len(cover) <= d.size
        assert all(r.is_balanced() for r in cover)

    def test_single_model_circuit(self):
        g = fam.path(4)  # 3 edges, exactly one model
        d, _ = smooth_pipeline(g)
        cover = extract_balanced_cover(d)
        assert len(cover) == 1 and cover[0].size == 1

    def test_too_few_variables_rejected(self):
        g = fam.path(2)
        d, _ = smooth_pipeline(g)
        with pytest.raises(ValueError):
            extract_balanced_cover(d)


class TestDeepCircuits:
    def test_and_chain_deeper_than_recursion_limit(self):
        # x0 & x1 & ... & x1499 as a left-deep chain of binary AND gates
        n = 1500
        b = CircuitBuilder(n)
        root = b.literal(0, True)
        for v in range(1, n):
            root = b.gate_and(root, b.literal(v, True))
        d = b.build(root)
        full = (1 << n) - 1
        (tree,) = enumerate_proof_trees(d)
        assert tree.ones == tree.assigned == full
        assert tree.nodes == frozenset(range(d.node_count))
        vtree, gate_of = proof_tree_vtree(d, full)
        assert (gate_of[vtree.root], edges_below(vtree)[vtree.root]) == (root, frozenset(range(n)))
        assert sorted(node[1] for node in vtree.nodes if node[0] == "leaf") == list(range(n))
        assert len(vtree.nodes) == 2 * n - 1
        assert max(vtree.depth) == n - 1
        assert sorted(gate_of.values()) == list(range(d.node_count))
