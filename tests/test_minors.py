import itertools
import random
import zlib

import pytest

from lemmas import induced_subgraph, k4_with_pendant_path, mask_of, nnf_truth_table, octahedron, replay_on_circuit, subdivided
from tseitinkit import families as fam, graphs, minors
from tseitinkit.graphs import Graph, connected_components, is_3_connected, is_connected
from tseitinkit.minors import MinorOp, MinorResult, find_safe_separator, three_connected_minor
from tseitinkit.width import TREEWIDTH_EXACT_CAP, treewidth_estimate, treewidth_exact


class TestFindSafeSeparator:
    def test_bowtie_cut_vertex(self):
        sep, comp, others = find_safe_separator(fam.bowtie())
        assert sep == (2,)
        assert comp in ({0, 1}, {3, 4})
        assert others == [{0, 1, 3, 4} - comp]

    def test_two_k4_shared_edge(self):
        sep, comp, others = find_safe_separator(fam.two_k4_shared_edge())
        assert sep == (2, 3)
        assert comp in ({0, 1}, {4, 5})
        assert others == [{0, 1, 4, 5} - comp]

    def test_k4_none(self):
        assert find_safe_separator(fam.complete(4)) is None

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            find_safe_separator(Graph(4, ((0, 1), (2, 3))))

    def test_prefers_size_1(self):
        g = k4_with_pendant_path()
        sep, comp, others = find_safe_separator(g)
        assert len(sep) == 1
        assert comp == {0, 1, 2}  # the side preserving treewidth 3
        assert others == [{4, 5}]  # the pendant path beyond the cut vertex


COMPOSITES = [
    ("k4_pendant", k4_with_pendant_path, 4, 6),
    ("two_k4", fam.two_k4_shared_edge, 4, 6),
    ("k4", lambda: fam.complete(4), 4, 6),
]


class TestThreeConnectedMinor:
    @pytest.mark.parametrize("name,make,n,m", COMPOSITES, ids=[c[0] for c in COMPOSITES])
    def test_reduces_to_k4(self, name, make, n, m):
        g = make()
        result = three_connected_minor(g)
        assert (result.graph.n, result.graph.m) == (n, m)
        assert is_3_connected(result.graph)
        assert treewidth_exact(result.graph) == treewidth_exact(g)

    def test_k4_unchanged_no_trace(self):
        result = three_connected_minor(fam.complete(4))
        assert result.trace == []
        assert result.graph == fam.complete(4)
        assert result.var_of_edge == tuple(range(6))

    def test_small_treewidth_ends_below_4_vertices(self):
        # C4 ends at a triangle, the bowtie at one of its two
        for g in (fam.cycle(4), fam.bowtie()):
            h = three_connected_minor(g).graph
            assert (h.n, sorted(h.edges)) == (3, [(0, 1), (0, 2), (1, 2)])

    @pytest.mark.parametrize(
        "make",
        [lambda: fam.complete(5), lambda: fam.wheel(4), lambda: fam.cube(3), lambda: fam.grid(3, 3),
         fam.two_k4_shared_edge, k4_with_pendant_path, octahedron],
        ids=["K5", "W4", "Q3", "grid3x3", "twoK4", "k4pendant", "octahedron"],
    )
    def test_treewidth_preserved_and_3_connected(self, make):
        g = make()
        result = three_connected_minor(g)
        assert is_3_connected(result.graph)
        assert treewidth_exact(result.graph) == treewidth_exact(g)

    def test_trace_ops_well_formed(self):
        result = three_connected_minor(k4_with_pendant_path())
        kinds = {op.kind for op in result.trace}
        assert kinds <= {"delete_edge", "forget_edge"}
        # the pendant path loses its two edges; its two vertices leave the
        # minor's names without a step of their own
        deleted = [op.var for op in result.trace if op.kind == "delete_edge"]
        assert sorted(deleted) == [6, 7]
        assert result.vertex_names == (0, 1, 2, 3)

    @pytest.mark.parametrize("make", [fam.two_k4_shared_edge, k4_with_pendant_path, lambda: fam.grid(3, 3)],
                             ids=["twoK4", "k4pendant", "grid3x3"])
    def test_replay_turns_circuit_into_minor_circuit(self, make):
        from tseitinkit.compiler import pipeline
        from tseitinkit.tseitin import unit_charge

        g = make()
        result = three_connected_minor(g)
        _, d, _ = pipeline(g, unit_charge(g.n, 0), (0,) * g.n)
        replayed = replay_on_circuit(result, d)
        assert replayed.size <= d.size
        h = result.graph
        table = nnf_truth_table(replayed)
        # the replayed circuit depends only on the surviving variables and
        # computes the minor's all-zero formula on them
        for mask in range(1 << g.m):
            h_mask = 0
            for he, var in enumerate(result.var_of_edge):
                if (mask >> var) & 1:
                    h_mask |= 1 << he
            expected = all(
                bin(h_mask & mask_of(h.incident[v])).count("1") % 2 == 0 for v in range(h.n)
            )
            assert bool((table >> mask) & 1) == expected

    def test_var_map_points_at_original_edges(self):
        g = fam.two_k4_shared_edge()
        result = three_connected_minor(g)
        for new_e, old_var in enumerate(result.var_of_edge):
            u, v = result.graph.edges[new_e]
            ou, ov = g.edges[old_var]
            named = {result.vertex_names[u], result.vertex_names[v]}
            # a kept edge keeps its endpoints unless it came from a contracted path
            if not any(op.kind == "forget_edge" and op.kept_var == old_var for op in result.trace):
                assert named == {ou, ov}


def assert_small_minor(g: Graph):
    """The minor of g, of treewidth below 3, has fewer than 4 vertices and
    is not 3-connected; its treewidth is g's when both are exact."""
    h = three_connected_minor(g).graph
    assert h.n < 4 and not is_3_connected(h)
    if g.n <= TREEWIDTH_EXACT_CAP:
        assert treewidth_exact(h) == treewidth_exact(g)


class TestSmallTreewidthAboveExactCap:
    """There is no treewidth precheck, so a graph of treewidth below 3 runs
    the reduction down to fewer than 4 vertices, on either side of the
    exact-treewidth cap, and that small minor is returned."""

    @pytest.mark.parametrize("g", [fam.cycle(20), fam.grid(2, 10)], ids=["cycle20", "grid2x10"])
    def test_above_the_cap(self, g):
        assert g.n > TREEWIDTH_EXACT_CAP
        assert_small_minor(g)

    @pytest.mark.parametrize("g", [fam.cycle(5), fam.grid(2, 5), fam.path(6), fam.path(2), fam.bowtie()],
                             ids=["C5", "grid2x5", "P6", "P2", "bowtie"])
    def test_below_the_cap(self, g):
        assert g.n <= TREEWIDTH_EXACT_CAP
        assert_small_minor(g)


class TestTreewidthComputedOnce:
    """The certificate computes the exact treewidth of its minor, never
    the input's; a 3-connected input is its own minor."""

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        from tseitinkit import width

        calls = []

        def counted(g):
            calls.append(g.n)
            return treewidth_exact(g)

        monkeypatch.setattr(width, "treewidth_exact", counted)
        return calls

    @pytest.mark.parametrize("make", [lambda: fam.cube(4), lambda: fam.complete(8)], ids=["Q4", "K8"])
    def test_certificate_of_3_connected_graph(self, exact_calls, make):
        from tseitinkit.bounds import certified_lower_bound

        g = make()
        assert certified_lower_bound(g).k == 1
        assert exact_calls == [g.n]

    def test_minor_treewidth_after_a_reduction(self, exact_calls):
        from tseitinkit.bounds import certified_lower_bound

        g = fam.two_k4_shared_edge()
        assert certified_lower_bound(g).minor_n == 4 < g.n
        # the separator's smaller side (the minor-min-degree bound settles
        # the larger), then the minor's treewidth for the chain
        assert exact_calls == [4, 4]


# --- reference: the reduction as first written --------------------------------
#
# A second, mutable graph type that scans every edge for each query, an
# is_3_connected test before each separator search, each separator searched
# from scratch and every side ranked by its value.  The library keeps the
# state as a MinorResult, loops on find_safe_separator alone, resumes each
# search and lets a lower bound settle the largest side; its results must
# not differ.


def reference_find_safe_separator(g: Graph):
    """`find_safe_separator` with the separator of a fresh copy of g (one
    search from the cut-vertex pass on) and every side ranked by the
    `treewidth_estimate` of its completed side: exact at desk scale, the
    minor-min-degree bound beyond."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    sep = Graph(g.n, g.edges).separator
    if sep is None:
        return None
    comps = connected_components(g, sep)

    def value(comp):
        sub, vmap = induced_subgraph(g, comp | set(sep))
        extra = [(vmap[u], vmap[w]) for u, w in itertools.combinations(sep, 2) if w not in g.adj[u]]
        filled = Graph(sub.n, sub.edges + tuple(extra))
        return treewidth_estimate(filled)[0]

    best = max(comps, key=lambda comp: (value(comp), -min(comp)))
    return sep, best, [comp for comp in comps if comp is not best]


class _ReferenceReducer:
    """Mutable view of a graph under topological-minor operations."""

    def __init__(self, g: Graph):
        self.vertices = set(range(g.n))
        self.edges = {e: g.edges[e] for e in range(g.m)}
        self.var = {e: e for e in range(g.m)}
        self.trace: list[MinorOp] = []

    def has_edge(self, u, v):
        return any({a, b} == {u, v} for a, b in self.edges.values())

    def delete_edge(self, e):
        self.trace.append(MinorOp("delete_edge", var=self.var[e]))
        del self.edges[e]
        del self.var[e]

    def drop_isolated(self):
        self.vertices &= {x for e in self.edges.values() for x in e}

    def eliminate_subdivision(self, v):
        inc = [e for e, (a, b) in self.edges.items() if v in (a, b)]
        if len(inc) != 2:
            raise AssertionError(f"vertex {v} has degree {len(inc)}, not 2")
        e1, e2 = sorted(inc)
        a = self.edges[e1][0] if self.edges[e1][1] == v else self.edges[e1][1]
        b = self.edges[e2][0] if self.edges[e2][1] == v else self.edges[e2][1]
        self.trace.append(MinorOp("forget_edge", var=self.var[e2], vertex=v, kept_var=self.var[e1]))
        del self.edges[e2]
        del self.var[e2]
        self.edges[e1] = (min(a, b), max(a, b))
        self.vertices.discard(v)

    def snapshot(self) -> MinorResult:
        names = tuple(sorted(self.vertices))
        vmap = {v: i for i, v in enumerate(names)}
        order = sorted(self.edges)
        edges = tuple((min(vmap[a], vmap[b]), max(vmap[a], vmap[b])) for a, b in (self.edges[e] for e in order))
        return MinorResult(
            graph=Graph(len(names), edges),
            var_of_edge=tuple(self.var[e] for e in order),
            vertex_names=names,
            trace=list(self.trace),
        )

    def current_graph(self) -> tuple[Graph, dict[int, int]]:
        snap = self.snapshot()
        return snap.graph, {i: v for i, v in enumerate(snap.vertex_names)}


def reference_three_connected_minor(g: Graph) -> MinorResult:
    if not is_connected(g):
        raise ValueError("graph must be connected")
    tw0 = treewidth_exact(g) if g.n <= TREEWIDTH_EXACT_CAP else None

    red = _ReferenceReducer(g)
    while True:
        cur, names = red.current_graph()
        if is_3_connected(cur):
            break
        found = reference_find_safe_separator(cur)
        if found is None:
            if cur.n >= 4:
                raise AssertionError("not 3-connected but no separator of size <= 2")
            break  # treewidth below 3: the reduction ends below 4 vertices
        sep_local, comp_local, _ = found
        sep = tuple(names[v] for v in sep_local)
        keep = {names[v] for v in comp_local} | set(sep)
        drop_comps = []
        removed = set(sep_local)
        rest, vmap = induced_subgraph(cur, set(range(cur.n)) - removed)
        inv = {i: v for v, i in vmap.items()}
        for comp in sorted(connected_components(rest), key=min):
            vs = {names[inv[i]] for i in comp}
            if not (vs <= keep):
                drop_comps.append(vs)

        if len(sep) == 1:
            for vs in drop_comps:
                for e in sorted(e for e, (a, b) in red.edges.items() if a in vs or b in vs):
                    red.delete_edge(e)
            red.drop_isolated()
            continue

        u, v = sep
        if not red.has_edge(u, v):
            # realize uv through the dropped component with the smallest vertex
            via = min(drop_comps, key=min)
            path = _reference_path_between(red, u, v, via)
            drop_comps = [c for c in drop_comps if c is not via]
            path_edges = set(path)
            for e in sorted(e for e, (a, b) in red.edges.items()
                            if (a in via or b in via) and e not in path_edges):
                red.delete_edge(e)
            red.drop_isolated()
            inner = _reference_path_inner_vertices(red, path)
            for w in inner:
                red.eliminate_subdivision(w)
        for vs in drop_comps:
            for e in sorted(e for e, (a, b) in red.edges.items() if a in vs or b in vs):
                red.delete_edge(e)
        red.drop_isolated()

    result = red.snapshot()
    if result.graph.n <= TREEWIDTH_EXACT_CAP and tw0 is not None:
        tw_h = treewidth_exact(result.graph)
        if tw_h != tw0:
            raise AssertionError(f"minor treewidth {tw_h} != original {tw0}")
    return result


def _reference_path_between(red: _ReferenceReducer, u: int, v: int, via: set[int]) -> list[int]:
    """Edge ids of a shortest u-v path whose interior stays inside `via`."""
    allowed = via | {u, v}
    prev = {u: None}
    queue = [u]
    while queue:
        nxt = []
        for x in queue:
            for e, (a, b) in sorted(red.edges.items()):
                if x not in (a, b):
                    continue
                y = b if a == x else a
                if y not in allowed or y in prev:
                    continue
                if x == u and y == v:
                    continue  # must pass through the component
                prev[y] = (x, e)
                if y == v:
                    path = []
                    cur = v
                    while prev[cur] is not None:
                        cur, e2 = prev[cur]
                        path.append(e2)
                    return list(reversed(path))
                nxt.append(y)
        queue = nxt
    raise AssertionError("no path through component; separator bookkeeping is wrong")


def _reference_path_inner_vertices(red: _ReferenceReducer, path_edges: list[int]) -> list[int]:
    counts = {}
    for e in path_edges:
        if e in red.edges:
            a, b = red.edges[e]
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
    return sorted(v for v, c in counts.items() if c == 2)


def random_connected_graph(seed: int) -> Graph:
    """A random spanning tree on at most 22 vertices plus random chords,
    sparse or dense, so that cut vertices, 2-separators with and without
    their edge, and treewidth below 3 all occur."""
    rng = random.Random(zlib.crc32(f"minor {seed}".encode()))
    n = rng.randint(4, 22)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    density = rng.choice([0.03, 0.08, 0.15, 0.3])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


def assert_same_as_reference(g: Graph):
    expected = reference_three_connected_minor(g)
    result = three_connected_minor(g)
    assert (result.graph, result.var_of_edge, result.vertex_names, result.trace) == (
        expected.graph, expected.var_of_edge, expected.vertex_names, expected.trace)


class TestAgainstReference:
    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        assert_same_as_reference(g)

    @pytest.mark.parametrize(
        "g",
        [fam.grid(3, 6), fam.grid(4, 4), fam.grid(5, 5), fam.cube(4), fam.random_regular(16, 3, 1), fam.wheel(12),
         k4_with_pendant_path(), fam.two_k4_shared_edge(), octahedron(), fam.cycle(20), fam.grid(2, 10)],
        ids=["grid3x6", "grid4x4", "grid5x5", "Q4", "rr16", "W12", "k4pendant", "twoK4", "octahedron", "cycle20",
             "grid2x10"],
    )
    def test_named_graphs(self, g):
        assert_same_as_reference(g)

    @pytest.mark.parametrize("block", range(8))
    def test_random_graphs(self, block):
        for seed in range(40 * block, 40 * block + 40):
            assert_same_as_reference(random_connected_graph(seed))


def wheel_with_pendant_paths(spokes: int, length: int) -> Graph:
    """`fam.wheel(spokes)` with a path of `length` new vertices hanging
    off every other rim vertex."""
    w = fam.wheel(spokes)
    edges = list(w.edges)
    n = w.n
    for v in range(0, w.n, 2):
        path = [v, *range(n, n + length)]
        edges += zip(path, path[1:])
        n += length
    return Graph(n, tuple(edges))


def k4_chain(blocks: int, shared_edge: bool = True) -> Graph:
    """K4s in a row, each joined to the one before at its last two
    vertices (odd positions) or at its last one (even positions); without
    `shared_edge`, the edge between two shared vertices is left out, so
    that the pair's edge must be realized through the other side."""
    edges = set(itertools.combinations(range(4), 2))
    last, n, gone = [2, 3], 4, set()
    for i in range(1, blocks):
        shared = last if i % 2 else last[-1:]
        block = shared + list(range(n, n + 4 - len(shared)))
        n += 4 - len(shared)
        edges.update(itertools.combinations(block, 2))
        if len(shared) == 2 and not shared_edge:
            gone.add(tuple(shared))
        last = block[-2:]
    return Graph(n, tuple(sorted(edges - gone)))


NEW_FAMILIES = {
    **{f"subK4_{s}": (lambda s=s: subdivided(fam.complete(4), s)) for s in (1, 2, 3, 8)},
    **{f"subK5_{s}": (lambda s=s: subdivided(fam.complete(5), s)) for s in (1, 2, 4)},
    **{f"grid{t}x{t}": (lambda t=t: fam.grid(t, t)) for t in range(3, 8)},
    **{f"W{k}_paths{p}": (lambda k=k, p=p: wheel_with_pendant_paths(k, p)) for k in (4, 5, 8) for p in (1, 3)},
    **{f"k4chain{b}{'' if e else '_open'}": (lambda b=b, e=e: k4_chain(b, e)) for b in (2, 3, 5, 6) for e in (True, False)},
}


class TestNewFamiliesAgainstReference:
    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_same_as_reference(self, name):
        assert_same_as_reference(NEW_FAMILIES[name]())

    @pytest.mark.parametrize("shared_edge", [True, False])
    def test_chain_resumes_after_a_cut_vertex(self, monkeypatch, shared_edge):
        # a pair reduction follows a cut-vertex reduction, so the search
        # after it runs the cut-vertex pass and then resumes at the pair
        sizes = []
        original = minors.find_safe_separator

        def recorded(g):
            found = original(g)
            sizes.append(len(found[0]) if found else 0)
            return found

        monkeypatch.setattr(minors, "find_safe_separator", recorded)
        three_connected_minor(k4_chain(6, shared_edge))
        assert any(sizes[i:i + 2] == [1, 2] for i in range(len(sizes)))
        assert sizes[-1] == 0

    @pytest.mark.parametrize("block", range(4))
    def test_find_safe_separator(self, block):
        for seed in range(40 * block, 40 * block + 40):
            g = random_connected_graph(seed)
            assert find_safe_separator(g) == reference_find_safe_separator(g), seed


GRID_SHAPES = [(3, 3), (4, 4), (4, 5), (5, 5), (6, 6), (7, 7), (8, 8), (12, 12)]


class TestReductionWork:
    """The reduction's separator passes and width runs."""

    @pytest.fixture
    def passes(self, monkeypatch):
        passes = []
        original = graphs._separating_vertices

        def counted(g, removed=-1):
            passes.append(removed)
            return original(g, removed)

        monkeypatch.setattr(graphs, "_separating_vertices", counted)
        return passes

    @pytest.mark.parametrize("t,count", [(4, 18), (8, 66), (12, 146)])
    def test_grid_passes(self, passes, t, count):
        # one cut-vertex pass and the pairs up to the first corner's, then
        # each corner's reduction resumes at the pair it cut along: n + 2
        # passes in all
        assert three_connected_minor(fam.grid(t, t)).graph.n == t * t - 4
        assert len(passes) == count == t * t + 2

    @pytest.mark.parametrize("s", [2, 8, 32])
    def test_subdivided_k4_passes(self, passes, s):
        # one cut-vertex pass, then pairs from 0 up to the first branch
        # vertex's partner, whatever the number of subdivisions
        assert three_connected_minor(subdivided(fam.complete(4), s)).graph == fam.complete(4)
        assert len(passes) == 11

    @pytest.mark.parametrize("rows,cols", GRID_SHAPES, ids=[f"grid{r}x{c}" for r, c in GRID_SHAPES])
    def test_no_width_run_on_a_grid_kept_side(self, monkeypatch, rows, cols):
        # the minor-min-degree bound settles the kept side of every
        # reduction step, so the estimate runs only on the dropped sides'
        # completions
        runs, steps = [], []
        original = minors.find_safe_separator

        def counted(run):
            def wrapped(side):
                runs.append(side.n)
                return run(side)
            return wrapped

        def recorded(h):
            runs.clear()
            found = original(h)
            if found is not None:
                sep, kept, others = found
                steps.append((sorted(runs), sorted(len(comp) + len(sep) for comp in others), len(kept) + len(sep)))
            return found

        monkeypatch.setattr(minors, "treewidth_estimate", counted(treewidth_estimate))
        monkeypatch.setattr(minors, "find_safe_separator", recorded)
        three_connected_minor(fam.grid(rows, cols))
        assert len(steps) == 4
        for ran, dropped, kept in steps:
            assert ran == dropped and kept not in ran
