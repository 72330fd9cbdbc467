import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import (
    induced_subgraph,
    k4_with_pendant_path,
    octahedron,
    random_shaped_graph,
    random_split_requests,
    reference_components,
    reference_safe_split_subset,
    reference_split_all,
    separators_of_size,
)
from tseitinkit import families as fam
from tseitinkit.graphs import (
    Graph,
    SplitRequest,
    _first_separator,
    _separating_vertices,
    connected_components,
    graph_from_text,
    graph_to_text,
    greedy_independent_set,
    is_3_connected,
    is_connected,
    safe_split_subset,
    search,
    split_all,
    tree_path,
)


def small_graphs(max_n=7):
    """Hypothesis strategy: a simple graph as an edge subset of K_n."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
        return Graph(n, tuple(sorted(edges)))

    return build()


class TestGraphBasics:
    def test_rejects_loops_and_parallel_edges(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(2, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_adjacency_consistent(self):
        g = fam.wheel(4)
        for v in range(g.n):
            assert sorted(g.other_end(e, v) for e in g.incident[v]) == list(g.adj[v])

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_incident_mask_matches_incident(self, g):
        assert g.incident_mask == tuple(sum(1 << e for e in inc) for inc in g.incident)


class TestConnectedComponents:
    def test_triangle_single_class(self):
        assert connected_components(fam.cycle(3)) == [{0, 1, 2}]

    def test_two_disjoint_edges(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert connected_components(g) == [{0, 1}, {2, 3}]

    def test_c4_minus_opposite_edges(self):
        g = Graph(4, ((0, 1), (2, 3)))  # C4 with edges {1,2} and {0,3} deleted
        comps = connected_components(g)
        assert sorted(len(c) for c in comps) == [2, 2]

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_partition_property(self, g):
        comps = connected_components(g)
        assert sorted(v for comp in comps for v in comp) == list(range(g.n))
        for comp in comps:
            for u, v in g.edges:
                assert (u in comp) == (v in comp) or not ({u, v} & comp)


class TestComponentsAgainstReference:
    """`Graph.components`, and `connected_components` and `is_connected`
    that read it, against one plain `search` per unreached vertex."""

    def check(self, g):
        want = reference_components(g)
        assert g.components == tuple(want)
        assert all(isinstance(comp, frozenset) for comp in g.components)
        assert connected_components(g) == want
        assert is_connected(g) == (len(want) <= 1)

    @pytest.mark.parametrize("block", range(5))
    def test_random_shaped_graphs(self, block):
        for seed in range(50 * block, 50 * block + 50):
            self.check(random_shaped_graph(seed))

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        self.check(g)

    def test_empty_and_edgeless(self):
        for n in range(4):
            self.check(Graph(n, ()))

    def test_searched_once_per_graph(self, monkeypatch):
        import tseitinkit.graphs as graphs

        starts = []
        real = graphs.search

        def counted(g, start, allowed=None):
            starts.append(start)
            return real(g, start, allowed)

        monkeypatch.setattr(graphs, "search", counted)
        g = Graph(5, ((0, 1), (2, 3)))
        for _ in range(3):
            connected_components(g)
            is_connected(g)
        assert starts == [0, 2, 4]


def reference_search(g: Graph, start: int, allowed=None) -> dict:
    """Breadth-first search written level by level."""
    tree = {start: None}
    level = [start]
    while level:
        nxt = []
        for u in level:
            for e in g.incident[u]:
                w = g.other_end(e, u)
                if w not in tree and (allowed is None or w in allowed):
                    tree[w] = (u, e)
                    nxt.append(w)
        level = nxt
    return tree


class TestSearch:
    def test_c4_tree(self):
        g = fam.cycle(4)  # edges 0 = 01, 1 = 12, 2 = 23, 3 = 03
        tree = search(g, 0)
        assert list(tree.items()) == [(0, None), (1, (0, 0)), (3, (0, 3)), (2, (1, 1))]
        assert tree_path(tree, 2) == [0, 1] and tree_path(tree, 0) == []

    def test_allowed_vertices(self):
        g = fam.cycle(4)
        assert search(g, 0, {2, 3}) == {0: None, 3: (0, 3), 2: (3, 2)}
        assert tree_path(search(g, 0, {2, 3}), 2) == [3, 2]
        assert search(g, 0, set()) == {0: None}

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_same_tree_as_level_search(self, g, data):
        start = data.draw(st.integers(0, g.n - 1))
        allowed = data.draw(st.none() | st.sets(st.integers(0, g.n - 1)))
        tree = search(g, start, allowed)
        assert list(tree.items()) == list(reference_search(g, start, allowed).items())
        for v in tree:
            walk = start
            for e in tree_path(tree, v):
                walk = g.other_end(e, walk)
            assert walk == v

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_components_without_removed_vertices(self, g, data):
        removed = data.draw(st.sets(st.integers(0, g.n - 1)))
        rest, vmap = induced_subgraph(g, set(range(g.n)) - removed)
        inv = {i: v for v, i in vmap.items()}
        expected = sorted(({inv[i] for i in comp} for comp in connected_components(rest)), key=min)
        assert connected_components(g, tuple(removed)) == expected

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_is_connected(self, g):
        assert is_connected(g) == (len(connected_components(g)) <= 1)


class TestThreeConnectivity:
    def test_k4_true(self):
        assert is_3_connected(fam.complete(4))

    def test_c4_false(self):
        assert not is_3_connected(fam.cycle(4))

    def test_c3_too_small(self):
        assert not is_3_connected(fam.cycle(3))

    def test_known_3_connected(self):
        for g in (fam.complete(5), fam.wheel(4), fam.wheel(5), fam.cube(3), octahedron()):
            assert is_3_connected(g)


# --- the reference: one full connectivity search per candidate set ----------


def reference_connected_after_removal(g: Graph, removed: set[int]) -> bool:
    remaining = [v for v in range(g.n) if v not in removed]
    if not remaining:
        return False
    seen = set(removed)
    seen.add(remaining[0])
    stack = [remaining[0]]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def reference_separators(g: Graph, size: int) -> list[tuple[int, ...]]:
    return [sep for sep in itertools.combinations(range(g.n), size)
            if not reference_connected_after_removal(g, set(sep))]


def reference_first_separator(g: Graph) -> tuple[int, ...] | None:
    """The first separator of size 1, else of size 2, that leaves a vertex."""
    return next((sep for size in (1, 2) for sep in reference_separators(g, size) if size < g.n), None)


def reference_is_3_connected(g: Graph) -> bool:
    return g.n >= 4 and is_connected(g) and not reference_separators(g, 1) and not reference_separators(g, 2)


def families_up_to_20() -> list[tuple[str, Graph]]:
    graphs = fam.desk()
    graphs += [(f"C{n}", fam.cycle(n)) for n in range(3, 21)]
    graphs += [(f"P{n}", fam.path(n)) for n in range(2, 21)]
    graphs += [(f"K{n}", fam.complete(n)) for n in range(1, 21)]
    graphs += [(f"W{n}", fam.wheel(n)) for n in range(3, 20)]
    graphs += [(f"Q{d}", fam.cube(d)) for d in range(1, 5)]
    graphs += [(f"grid{r}x{c}", fam.grid(r, c)) for r in range(1, 21) for c in range(r, 21) if r * c <= 20]
    graphs += [(f"rr{n}-{d}-{seed}", fam.random_regular(n, d, seed))
               for n in range(4, 21) for d in (3, 4) if n * d % 2 == 0 and d < n for seed in (1, 2)]
    graphs += [("k4pendant", k4_with_pendant_path()), ("octahedron", octahedron())]
    return graphs


class TestSeparatorsAgainstReference:
    @pytest.mark.parametrize("name_graph", families_up_to_20(), ids=lambda p: p[0])
    def test_families(self, name_graph):
        _, g = name_graph
        for size in (1, 2):
            assert separators_of_size(g, size) == reference_separators(g, size), size
        assert g.separator == reference_first_separator(g), g
        assert is_3_connected(g) == reference_is_3_connected(g)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_graphs(max_n=3), small_graphs(max_n=9)))
    def test_random_graphs(self, g):
        for size in (1, 2):
            assert separators_of_size(g, size) == reference_separators(g, size), size
        assert g.separator == reference_first_separator(g), g
        assert is_3_connected(g) == reference_is_3_connected(g)

    def test_shapes_with_early_cuts(self):
        """Disconnected graphs, and graphs where g - u is already disconnected."""
        graphs = [
            Graph(0, ()), Graph(1, ()), Graph(2, ()), Graph(2, ((0, 1),)), Graph(3, ((0, 1),)),
            Graph(4, ((0, 1), (2, 3))), Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4))),
            fam.bowtie(), k4_with_pendant_path(), Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4))),
            Graph(7, tuple(fam.complete(4).edges) + ((4, 5), (5, 6), (6, 4))),
        ]
        for g in graphs:
            for size in (1, 2):
                assert separators_of_size(g, size) == reference_separators(g, size), (g, size)
            assert g.separator == reference_first_separator(g), g
            assert is_3_connected(g) == reference_is_3_connected(g)

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            separators_of_size(fam.complete(4), 3)

    @pytest.mark.parametrize("block", range(5))
    def test_pass_for_every_removed_vertex(self, block):
        """One articulation pass per removed vertex (and none removed)
        against a connectivity search per candidate, on every shape
        `random_shaped_graph` draws, disconnected ones included."""
        for seed in range(100 * block, 100 * block + 100):
            g = random_shaped_graph(seed)
            for removed in range(-1, g.n):
                expected = [v for v in range(g.n) if v != removed
                            and not reference_connected_after_removal(g, {removed, v} & set(range(g.n)))]
                assert _separating_vertices(g, removed) == expected, (seed, removed)


class TestResumedSeparatorSearch:
    """`_first_separator` started past the cut-vertex pass and at a later
    pair finds g's separator whenever what it skips holds nothing."""

    @pytest.mark.parametrize("block", range(3))
    def test_random_graphs(self, block):
        resumed = 0
        for seed in range(100 * block, 100 * block + 100):
            rng = random.Random(f"resume {seed}")
            n, density = rng.randint(3, 14), rng.choice([0.2, 0.35, 0.5])
            g = Graph(n, tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < density))
            sep = reference_first_separator(g)
            assert _first_separator(g) == sep
            if sep is not None and len(sep) == 2:
                for start in range(sep[0] + 1):
                    assert _first_separator(g, start, False) == sep, (seed, start)
                    resumed += 1
        assert resumed

    def test_start_past_the_pairs(self):
        g = fam.cycle(6)
        assert g.separator == (0, 2)
        assert _first_separator(g, 1, False) == (1, 3)
        assert _first_separator(g, 6, False) is None


class TestSplitVertex:
    def test_k4_split(self):
        k4 = fam.complete(4)
        g = split_all(k4, [SplitRequest(3, (0,), (1, 2))])[0]
        assert g.n == 5 and g.m == 6
        assert is_connected(g)
        # edge ids are kept: edge 2 = 03 stays at v1 = 3, edges 4 = 13 and 5 = 23 move to v2 = 4
        assert g.edges == k4.edges[:4] + ((1, 4), (2, 4))

    def test_star_center_disconnects(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        g = split_all(star, [SplitRequest(0, (1,), (2, 3))])[0]
        assert len(connected_components(g)) == 2

    def test_path_center_breaks(self):
        g = split_all(fam.path(3), [SplitRequest(1, (0,), (2,))])[0]
        assert g.edges == ((0, 1), (2, 3))

    def test_improper_partition_rejected(self):
        with pytest.raises(ValueError):
            split_all(fam.complete(4), [SplitRequest(3, (), (0, 1, 2))])
        with pytest.raises(ValueError):
            split_all(fam.complete(4), [SplitRequest(3, (0,), (1,))])

    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_vertex_out_of_range_rejected(self, vertex):
        # -1 would read vertex 3's neighbours through negative indexing
        k4 = fam.complete(4)
        req = SplitRequest(vertex, (0,), (1, 2))
        for call in (split_all, safe_split_subset):
            with pytest.raises(ValueError, match=f"split of {vertex}: vertex outside 0..3"):
                call(k4, [req])

    def test_adjacent_split_vertices_rejected(self):
        k4 = fam.complete(4)
        reqs = [SplitRequest(0, (1,), (2, 3)), SplitRequest(1, (0,), (2, 3))]
        with pytest.raises(ValueError):
            split_all(k4, reqs)


def proper_partitions(neighbors):
    nb = sorted(neighbors)
    for bits in range(1, 1 << (len(nb) - 1)):
        side1 = tuple(x for i, x in enumerate(nb) if (bits >> i) & 1)
        side2 = tuple(x for x in nb if x not in side1)
        yield side1, side2


class TestSafeSplitSubset:
    def test_k4_single_request(self):
        k4 = fam.complete(4)
        req = SplitRequest(3, (0,), (1, 2))
        assert safe_split_subset(k4, [req]) == [req]

    def test_w4_opposite_rim(self):
        w4 = fam.wheel(4)
        reqs = [SplitRequest(0, (1,), (3, 4)), SplitRequest(2, (3,), (1, 4))]
        assert safe_split_subset(w4, reqs) == reqs

    def test_requires_3_connected(self):
        with pytest.raises(ValueError):
            safe_split_subset(fam.cycle(4), [SplitRequest(0, (1,), (3,))])

    def test_requires_independent(self):
        k4 = fam.complete(4)
        reqs = [SplitRequest(0, (1,), (2, 3)), SplitRequest(1, (0,), (2, 3))]
        with pytest.raises(ValueError):
            safe_split_subset(k4, reqs)

    @pytest.mark.parametrize("g", [fam.complete(4), fam.wheel(4), fam.cube(3)], ids=["K4", "W4", "Q3"])
    def test_third_guarantee_and_connectivity(self, g):
        vertices = range(g.n)
        for size in (1, 2):
            for combo in itertools.combinations(vertices, size):
                if any(v in g.adj[u] for u, v in itertools.combinations(combo, 2)):
                    continue
                choices = [list(proper_partitions(g.adj[v])) for v in combo]
                for parts in itertools.product(*choices):
                    reqs = [SplitRequest(v, *p) for v, p in zip(combo, parts)]
                    keep = safe_split_subset(g, reqs)
                    assert 3 * len(keep) >= len(reqs)
                    split_graph, _ = split_all(g, keep)
                    assert is_connected(split_graph)


class TestSplitsMatchReference:
    """The one-pass splits and the one union-find sweep against the
    sequential splits and the component contraction they replace."""

    GRAPHS = {
        "K4": fam.complete(4), "K5": fam.complete(5), "K6": fam.complete(6),
        "W4": fam.wheel(4), "W5": fam.wheel(5), "Q3": fam.cube(3),
        "rr10-3-1": fam.random_regular(10, 3, 1), "rr12-4-2": fam.random_regular(12, 4, 2),
        "rr16-3-1": fam.random_regular(16, 3, 1),
    }

    def test_random_independent_requests(self):
        configs = dropped = 0
        for seed, (name, g) in enumerate(self.GRAPHS.items()):
            assert is_3_connected(g), name
            rng = random.Random(seed)
            for _ in range(400):
                reqs = random_split_requests(g, rng)
                assert split_all(g, reqs) == reference_split_all(g, reqs), (name, reqs)
                keep = safe_split_subset(g, reqs)
                assert keep == reference_safe_split_subset(g, reqs), (name, reqs)
                configs += 1
                dropped += len(keep) < len(reqs)
        # the branch that drops a split is rare, and no pipeline run reaches it
        assert configs == 3600 and dropped > 0


class TestGreedyIndependentSet:
    def test_triangle(self):
        assert greedy_independent_set(fam.cycle(3), {0, 1, 2}) == [0]

    def test_c4(self):
        assert greedy_independent_set(fam.cycle(4), {0, 1, 2, 3}) == [0, 2]

    @settings(max_examples=80, deadline=None)
    @given(small_graphs())
    def test_size_guarantee(self, g):
        candidates = set(range(g.n))
        result = greedy_independent_set(g, candidates)
        for u, v in itertools.combinations(result, 2):
            assert v not in g.adj[u]
        if g.n:
            bound = -(-len(candidates) // (g.max_degree + 1))
            assert len(result) >= bound


class TestGraphText:
    def test_round_trip_bench(self, bench_graph):
        _, g = bench_graph
        assert graph_from_text(graph_to_text(g)) == g

    def test_comments_and_errors(self):
        text = "# a comment\np graph 2 1\ne 1 2\n"
        assert graph_from_text(text) == Graph(2, ((0, 1),))
        with pytest.raises(ValueError):
            graph_from_text("p graph 2 2\ne 1 2\n")
        with pytest.raises(ValueError):
            graph_from_text("e 1 2\n")

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_round_trip_random(self, g):
        assert graph_from_text(graph_to_text(g)) == g
