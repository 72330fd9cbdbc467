import itertools
import random
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import (
    BranchDecomposition,
    Cut,
    all_cuts,
    branchwidth_bounds,
    caterpillar,
    cut_boundary,
    edges_below,
    k4_with_pendant_path,
    max_order_cut,
    octahedron,
    random_shaped_graph,
    reference_edge_order,
    reference_min_fill,
    reference_treewidth_lower_bound,
    width_of,
)
from tseitinkit import families as fam
from tseitinkit import width
from tseitinkit.bounds import adam_response
from tseitinkit.graphs import Graph, is_3_connected
from tseitinkit.minors import three_connected_minor
from tseitinkit.width import (
    TREEWIDTH_EXACT_CAP,
    _contraction_degree,
    _min_fill,
    _reachable_outside,
    _width_at_most,
    edge_order,
    order_bound,
    order_cut,
    treewidth_estimate,
    treewidth_exact,
    treewidth_lower_bound,
    treewidth_upper_bound,
)


def elimination_width(g: Graph, order) -> int:
    """Width of one elimination order, simulated by clique fill-in."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    width = 0
    for v in order:
        nb = adj.pop(v)
        width = max(width, len(nb))
        for a in nb:
            adj[a].discard(v)
        for a, b in itertools.combinations(sorted(nb), 2):
            adj[a].add(b)
            adj[b].add(a)
    return width


def brute_force_treewidth(g: Graph) -> int:
    """Independent oracle: minimum width over all elimination orders."""
    return min(elimination_width(g, order) for order in itertools.permutations(range(g.n)))


# --- reference cuts ---------------------------------------------------------
#
# Every cut as first written: recursive depths and edge sets, and one
# `cut_boundary` call per cut.  `lemmas.all_cuts` computes all boundaries
# in one bottom-up pass; its cuts must not differ.  `width.order_cut`
# sweeps an edge order for the maximum-order cut of its caterpillar; it
# must pick the cut `lemmas.max_order_cut` picks on that tree.


def reference_all_cuts(t: BranchDecomposition, g: Graph) -> list[Cut]:
    below: dict[int, frozenset] = {}
    depth: dict[int, int] = {}

    def walk(i, dep):
        node = t.nodes[i]
        depth[i] = dep
        if node[0] == "leaf":
            below[i] = frozenset((node[1],))
        else:
            below[i] = walk(node[1], dep + 1) | walk(node[2], dep + 1)
        return below[i]

    walk(t.root, 0)
    cuts = []
    for i in range(len(t.nodes)):
        if i == t.root and len(t.nodes) > 1:
            continue
        e1 = tuple(sorted(below[i]))
        e2 = tuple(e for e in range(g.m) if e not in below[i])
        cuts.append(Cut(i, depth[i], e1, e2, cut_boundary(g, e1)))
    return cuts


def random_connected_graph(seed: int) -> Graph:
    """A random spanning tree on 4..9 vertices plus random extra edges."""
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    density = rng.random() * 0.6
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


RANDOM_SEEDS = [zlib.crc32(f"connected-{i}".encode()) for i in range(30)]


def random_binary_tree(m: int, seed: int) -> BranchDecomposition:
    """Leaves 0..m-1 joined pairwise at random until one tree is left."""
    rng = random.Random(seed)
    parts: list = list(range(m))
    while len(parts) > 1:
        i, j = sorted(rng.sample(range(len(parts)), 2))
        right, left = parts.pop(j), parts.pop(i)
        parts.append((left, right))
    return BranchDecomposition.from_nested(parts[0])


def leaf_edges(t: BranchDecomposition) -> list[int]:
    return sorted(node[1] for node in t.nodes if node[0] == "leaf")


NAMED_GRAPHS = {
    "grid2x8": lambda: fam.grid(2, 8),
    "rr16": lambda: fam.random_regular(16, 3, 1),
    "Q4": lambda: fam.cube(4),
    "rr12-4-1": lambda: fam.random_regular(12, 4, 1),
    "rr12-4-14": lambda: fam.random_regular(12, 4, 14),
    "grid4x5-minor": lambda: three_connected_minor(fam.grid(4, 5)).graph,
}


def shuffled(order, seed: int) -> tuple[int, ...]:
    out = list(order)
    random.Random(seed).shuffle(out)
    return tuple(out)


class TestAgainstReference:
    def check(self, g: Graph, seed: int):
        for t in (caterpillar(edge_order(g)), random_binary_tree(g.m, seed)):
            assert leaf_edges(t) == list(range(g.m))
            assert all_cuts(t, g) == reference_all_cuts(t, g)
        for order in (edge_order(g), shuffled(range(g.m), seed)):
            self.check_order_cut(g, order)

    def check_order_cut(self, g: Graph, order):
        """The sweep's cut, and the boundary it implies, against the
        maximum-order cut of the caterpillar; on a 3-connected graph the
        adversary's boundary too."""
        want = max_order_cut(caterpillar(order), g)
        e1 = order_cut(g, order)
        assert e1 == want.e1, order
        assert cut_boundary(g, e1) == want.boundary, order
        if is_3_connected(g):
            assert adam_response(g, e1).v_prime == want.boundary, order

    def test_desk_family(self, bench_graph):
        name, g = bench_graph
        self.check(g, zlib.crc32(name.encode()))

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_connected(self, seed):
        self.check(random_connected_graph(seed), seed)

    @pytest.mark.parametrize("block", range(5))
    def test_order_cut_on_random_shaped_graphs(self, block):
        # 250 seeded graphs: trees, forests, isolated vertices and
        # disconnected ones among them; edgeless ones have no order
        for seed in range(50 * block, 50 * block + 50):
            g = random_shaped_graph(seed)
            if g.m:
                for order in (edge_order(g), shuffled(edge_order(g), seed), shuffled(range(g.m), seed + 1)):
                    self.check_order_cut(g, order)

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_order_cut_on_named_graphs(self, name):
        g = NAMED_GRAPHS[name]()
        for seed in range(3):
            self.check_order_cut(g, shuffled(edge_order(g), seed))
        self.check_order_cut(g, edge_order(g))

    def test_order_cut_edge_cases(self):
        # m = 1 gives the trivial cut; m = 2 offers its two leaves only
        assert order_cut(fam.path(2), (0,)) == (0,)
        assert order_cut(fam.path(3), (0, 1)) == (0,)
        assert order_cut(fam.path(3), (1, 0)) == (1,)
        # every cut of C3 has order 2: the deepest, lowest-id node wins
        assert order_cut(fam.cycle(3), (2, 0, 1)) == (2,)
        star = Graph(5, tuple((0, i) for i in range(1, 5)))  # every leaf cut has order 0
        for g in (fam.path(2), fam.path(3), fam.cycle(3), star, Graph(4, ((1, 3),))):
            for order in itertools.permutations(range(g.m)):
                self.check_order_cut(g, order)
        g = k4_with_pendant_path()  # degree-1 vertex 5
        for seed in range(100):
            self.check_order_cut(g, shuffled(range(g.m), seed))


# --- reference treewidth ----------------------------------------------------
#
# The exact oracle as first written: a dynamic program over all 2^n vertex
# subsets S, tw[S] = min over v in S of max(tw[S - v], |Q(S - v, v)|).  The
# library decides widths between its bounds by a search that never fills
# this table; its answers must not differ.


def reference_treewidth(g: Graph) -> int:
    if g.n == 0:
        return -1
    adj = g.adj_mask
    full = (1 << g.n) - 1
    tw = [0] * (full + 1)
    big = g.n + 1
    for s in range(1, full + 1):
        best = big
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            prev = s ^ low
            q = bin(_reachable_outside(adj, v, prev)).count("1")
            cand = max(tw[prev], q)
            if cand < best:
                best = cand
        tw[s] = best
    return tw[full]


def random_graph(seed: int) -> Graph:
    """1..12 vertices; every pair is joined with one shared random probability."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    density = rng.random()
    return Graph(n, tuple((u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density))


TREEWIDTH_SEEDS = [zlib.crc32(f"treewidth-{i}".encode()) for i in range(200)]


class TestAgainstReferenceTreewidth:
    def check(self, g: Graph) -> int:
        tw = reference_treewidth(g)
        assert treewidth_exact(g) == tw
        if tw >= 1:
            assert not _width_at_most(g.adj_mask, g.n, tw - 1)
            assert _width_at_most(g.adj_mask, g.n, tw)
        return tw

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        self.check(g)

    @pytest.mark.parametrize("seed", TREEWIDTH_SEEDS)
    def test_random(self, seed):
        g = random_graph(seed)
        tw = self.check(g)
        assert treewidth_lower_bound(g) <= tw <= treewidth_upper_bound(g)

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_named(self, name):
        self.check(NAMED_GRAPHS[name]())

    def test_search_runs_only_between_distinct_bounds(self, monkeypatch):
        calls = []

        def counted(adj_mask, n, k):
            calls.append(k)
            return _width_at_most(adj_mask, n, k)

        monkeypatch.setattr(width, "_width_at_most", counted)
        cases = [
            (fam.grid(4, 4), 4, []),  # bounds meet
            (fam.random_regular(16, 3, 1), 4, []),
            (fam.random_regular(12, 4, 1), 4, [4]),  # bounds 4, 5: the lower one is exact
            (fam.random_regular(12, 4, 14), 5, [4, 5]),  # bounds 4, 6
            (fam.cube(4), 6, [4, 5]),  # bounds 4, 6: the upper one is exact
        ]
        for g, tw, searched in cases:
            calls.clear()
            assert treewidth_exact(g) == tw
            assert calls == searched


class TestMinFillAgainstReference:
    """`_min_fill` recounts fills only around the eliminated vertex; the
    reference recounts every vertex at every step."""

    @pytest.mark.parametrize("block", range(6))
    def test_random_graphs(self, block):
        for seed in range(50 * block, 50 * block + 50):
            rng = random.Random(zlib.crc32(f"min-fill {seed}".encode()))
            n = rng.randint(1, 24)
            density = rng.choice([0.05, 0.15, 0.3, 0.6])
            g = Graph(n, tuple((u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density))
            assert _min_fill(g) == reference_min_fill(g), seed

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        assert _min_fill(g) == reference_min_fill(g)

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_named(self, name):
        g = NAMED_GRAPHS[name]()
        assert _min_fill(g) == reference_min_fill(g)

    def test_long_path_is_linear(self):
        # recounting every fill on every step takes ~4 minutes of CPU on
        # a 20000-vertex path; recounting around the eliminated vertex
        # takes ~0.2 s
        g = fam.path(20000)
        start = time.process_time()
        order, w = _min_fill(g)
        assert time.process_time() - start < 10
        assert order == list(range(20000)) and w == 1


class TestLowerBoundAgainstReference:
    """`treewidth_lower_bound` takes each contraction's vertex off a heap
    of (degree, vertex) entries; the reference scans every degree."""

    @pytest.mark.parametrize("block", range(4))
    def test_random_graphs(self, block):
        # every shape `random_shaped_graph` draws, disconnected ones included
        for seed in range(100 * block, 100 * block + 100):
            g = random_shaped_graph(seed)
            expected = reference_treewidth_lower_bound(g)
            assert treewidth_lower_bound(g) == expected, seed
            for enough in range(expected + 2):
                # stopped at `enough`, it says whether the bound reaches it
                assert (_contraction_degree(g, enough) >= enough) == (expected >= enough), (seed, enough)

    @pytest.mark.parametrize("g", [Graph(0, ()), Graph(1, ()), Graph(3, ()), Graph(4, ((0, 1), (2, 3)))],
                             ids=["empty", "K1", "three isolated", "two edges"])
    def test_edge_cases(self, g):
        assert treewidth_lower_bound(g) == reference_treewidth_lower_bound(g)

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_named(self, name):
        g = NAMED_GRAPHS[name]()
        assert treewidth_lower_bound(g) == reference_treewidth_lower_bound(g)

    @pytest.mark.parametrize("t", [5, 12, 25])
    def test_grids(self, t):
        assert treewidth_lower_bound(fam.grid(t, t)) == reference_treewidth_lower_bound(fam.grid(t, t))


class TestEdgeOrderAgainstReference:
    """`edge_order` (distance-list searches, endpoint-pair keys) and
    `_min_fill` (popcount fills) against their references, which keep
    distance dicts, sorted endpoint lists and set-form fills, on seeded
    graphs of every shape `random_shaped_graph` draws: disconnected
    ones, isolated vertices, trees and forests among them."""

    @pytest.mark.parametrize("block", range(5))
    def test_random_shaped_graphs(self, block):
        for seed in range(50 * block, 50 * block + 50):
            g = random_shaped_graph(seed)
            assert edge_order(g) == reference_edge_order(g), seed
            assert _min_fill(g) == reference_min_fill(g), seed

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        assert edge_order(g) == reference_edge_order(g)

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_named(self, name):
        g = NAMED_GRAPHS[name]()
        assert edge_order(g) == reference_edge_order(g)

    def test_pipeline_graphs(self):
        for g in (fam.grid(5, 5), fam.cycle(60), fam.grid(8, 8), fam.random_regular(40, 3, 1), fam.path(300)):
            assert edge_order(g) == reference_edge_order(g)


class TestTreewidthExact:
    def test_closed_forms(self):
        for n in range(2, 8):
            assert treewidth_exact(fam.complete(n)) == n - 1
        for n in range(3, 9):
            assert treewidth_exact(fam.cycle(n)) == 2
        for n in range(2, 9):
            assert treewidth_exact(fam.path(n)) == 1
        star = Graph(6, tuple((0, i) for i in range(1, 6)))
        assert treewidth_exact(star) == 1
        for n in range(2, 5):
            assert treewidth_exact(fam.grid(n, n)) == n

    def test_known_values(self):
        assert treewidth_exact(Graph(0, ())) == -1
        assert treewidth_exact(fam.cube(3)) == 3
        assert treewidth_exact(fam.wheel(4)) == 3
        assert treewidth_exact(octahedron()) == 4
        assert treewidth_exact(fam.bowtie()) == 2

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match=r"^n=17 exceeds exact treewidth cap 16$"):
            treewidth_exact(fam.cycle(17))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_against_permutation_oracle(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
        g = Graph(n, tuple(sorted(edges)))
        assert treewidth_exact(g) == brute_force_treewidth(g)

    def test_heuristics_bracket_exact(self, bench_graph):
        _, g = bench_graph
        tw = reference_treewidth(g)
        assert treewidth_lower_bound(g) <= tw <= treewidth_upper_bound(g)


ESTIMATED = {
    "K16": lambda: fam.complete(16), "K17": lambda: fam.complete(17), "C16": lambda: fam.cycle(16),
    "C17": lambda: fam.cycle(17), "grid4x4": lambda: fam.grid(4, 4), "grid3x6": lambda: fam.grid(3, 6),
    "grid5x5": lambda: fam.grid(5, 5), "rr16": lambda: fam.random_regular(16, 3, 1),
    "rr18": lambda: fam.random_regular(18, 3, 1), "Q4": lambda: fam.cube(4), "Q5": lambda: fam.cube(5),
}


@pytest.mark.parametrize("name", ESTIMATED)
def test_treewidth_estimate(name):
    """The one value the library reads: the exact treewidth up to the cap,
    the minor-min-degree lower bound beyond, with the CSV's labels."""
    g = ESTIMATED[name]()
    if g.n <= TREEWIDTH_EXACT_CAP:
        assert treewidth_estimate(g) == (treewidth_exact(g), "exact-dp")
    else:
        assert treewidth_estimate(g) == (treewidth_lower_bound(g), "mmd-lower/minfill-upper")


class TestBranchDecomposition:
    def test_from_nested_and_validate(self):
        t = BranchDecomposition.from_nested(((0, 1), 2))
        assert leaf_edges(t) == [0, 1, 2]
        assert edges_below(t)[t.root] == frozenset({0, 1, 2})
        assert t.nodes[t.root] == ("node", 1, 4) and t.nodes[1] == ("node", 2, 3)

    def test_caterpillar_deeper_than_recursion_limit(self):
        leaves = 1500
        nested = 0
        for e in range(1, leaves):
            nested = (nested, e)  # (((0, 1), 2), ...)
        t = BranchDecomposition.from_nested(nested)
        g = fam.path(leaves + 1)  # edge e joins vertices e and e + 1
        assert leaf_edges(t) == list(range(leaves))
        assert edges_below(t)[t.root] == frozenset(range(leaves))
        leaf_depth = {t.nodes[i][1]: t.depth[i] for i in range(len(t.nodes)) if t.nodes[i][0] == "leaf"}
        assert leaf_depth == {e: leaves - max(e, 1) for e in range(leaves)}
        cuts = all_cuts(t, g)
        assert sorted(c.node_id for c in cuts) == [i for i in range(len(t.nodes)) if i != t.root]
        for cut in cuts[::50]:
            assert cut.boundary == cut_boundary(g, cut.e1)
        assert order_cut(g, range(leaves)) == max(cuts, key=lambda c: (len(c.boundary), c.depth, -c.node_id)).e1

    def test_boundary_definition_matches_recomputation(self, bench_graph):
        _, g = bench_graph
        if g.m == 0:
            return
        t = caterpillar(edge_order(g))
        for cut in all_cuts(t, g):
            fresh = set()
            touch1 = {v for e in cut.e1 for v in g.edges[e]}
            touch2 = {v for e in cut.e2 for v in g.edges[e]}
            fresh = tuple(sorted(touch1 & touch2))
            assert cut.boundary == fresh == cut_boundary(g, cut.e1)

    def test_max_order_cut_c3(self):
        g = fam.cycle(3)
        t = BranchDecomposition.from_nested(((0, 1), 2))
        cut = max_order_cut(t, g)
        assert len(cut.boundary) == 2
        # every cut of this tree has order 2; the deepest smallest-id node wins
        assert all(len(c.boundary) == 2 for c in all_cuts(t, g))
        assert cut.e1 == order_cut(g, (0, 1, 2)) == (0,)

    def test_single_edge_graph(self):
        g = fam.path(2)
        assert order_cut(g, edge_order(g)) == max_order_cut(caterpillar(edge_order(g)), g).e1 == (0,)
        assert cut_boundary(g, (0,)) == ()

    def test_k4_max_cut_at_least_2(self):
        g = fam.complete(4)
        assert len(cut_boundary(g, order_cut(g, edge_order(g)))) >= 2


class TestBranchwidthBounds:
    def test_k4(self):
        lower, upper = branchwidth_bounds(fam.complete(4))
        assert lower == 2 and upper <= 3

    def test_c3(self):
        assert branchwidth_bounds(fam.cycle(3)) == (2, 2)

    def test_p3_guard(self):
        assert branchwidth_bounds(fam.path(3)) == (1, 1)

    def test_lower_le_upper(self, bench_graph):
        _, g = bench_graph
        lower, upper = branchwidth_bounds(g)
        assert lower <= upper

    def test_width_consistency(self, bench_graph):
        _, g = bench_graph
        t = caterpillar(edge_order(g))
        assert width_of(t, g) == max(len(c.boundary) for c in all_cuts(t, g))


class TestEdgeOrder:
    def test_permutation(self, bench_graph):
        _, g = bench_graph
        assert sorted(edge_order(g)) == list(range(g.m))

    def test_path_ranks_edges_by_id(self):
        # breadth-first from the end vertex 0; the other candidates tie
        assert edge_order(fam.path(9)) == tuple(range(8))

    def test_no_worse_than_min_fill(self):
        # the min-fill elimination order is one of the candidates
        for g in (fam.grid(3, 5), fam.grid(6, 6), fam.cube(4), fam.wheel(12), fam.random_regular(16, 3, 1)):
            pos = {v: i for i, v in enumerate(_min_fill(g)[0])}
            by_min_fill = sorted(range(g.m), key=lambda e: sorted(pos[v] for v in g.edges[e]))
            assert order_bound(g, edge_order(g)) <= order_bound(g, by_min_fill)

    def test_empty(self):
        assert edge_order(Graph(0, ())) == ()
        assert edge_order(Graph(3, ())) == ()

    def test_caterpillar_cuts_are_prefixes(self):
        g = fam.grid(2, 4)
        order = edge_order(g)
        t = caterpillar(order)
        prefixes = {tuple(sorted(order[:i])) for i in range(1, g.m)}
        singles = {(e,) for e in range(g.m)}
        assert {c.e1 for c in all_cuts(t, g)} == prefixes | singles
        with pytest.raises(ValueError):
            caterpillar(())
