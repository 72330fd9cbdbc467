"""Simple undirected graphs with dense vertex and edge ids.

Vertices are 0..n-1, edges carry dense ids 0..m-1 given by their position
in the edge list.  Edge ids double as Boolean variable ids everywhere else
in the package: a vertex split keeps every edge id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .textformat import error, header, ints, lines_of


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        nb = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nb[u].append(v)
            nb[v].append(u)
        return tuple(tuple(sorted(x)) for x in nb)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex, ascending."""
        inc = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append(e)
            inc[v].append(e)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def incident_mask(self) -> tuple[int, ...]:
        """Edge ids incident to each vertex, as a bitmask."""
        masks = [0] * self.n
        for e, (u, v) in enumerate(self.edges):
            masks[u] |= 1 << e
            masks[v] |= 1 << e
        return tuple(masks)

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The vertex sets of the connected components, in order of their
        smallest vertex, searched once per graph object."""
        return tuple(_components(self))

    @cached_property
    def separator(self) -> tuple[int, ...] | None:
        """The lexicographically first vertex set of size 1, else of size
        2, whose removal leaves a vertex and disconnects the graph; None
        when there is none.

        One articulation-point pass on the graph finds the single
        vertices, one on g - u for each u in turn the pairs {u, v}; the
        search stops at the first u with a partner, and takes the least.
        That partner is above u: a pair {v, u} with v < u would have
        stopped the search at v.  `_first_separator` is this search; the
        minor reduction resumes it part way and writes the memo itself.
        """
        return _first_separator(self)

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} not an endpoint of edge {e}")


@dataclass(frozen=True)
class SplitRequest:
    """Split a vertex along a proper partition of its neighborhood."""

    vertex: int
    side1: tuple[int, ...]
    side2: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "side1", tuple(sorted(self.side1)))
        object.__setattr__(self, "side2", tuple(sorted(self.side2)))

    def validate(self, g: Graph) -> None:
        if not 0 <= self.vertex < g.n:
            raise ValueError(f"split of {self.vertex}: vertex outside 0..{g.n - 1}")
        nbrs = set(g.adj[self.vertex])
        s1, s2 = set(self.side1), set(self.side2)
        if not s1 or not s2:
            raise ValueError(f"split of {self.vertex}: both sides must be non-empty")
        if s1 & s2 or (s1 | s2) != nbrs:
            raise ValueError(f"split of {self.vertex}: sides must partition N(v)")


def search(g: Graph, start: int, allowed=None) -> dict[int, tuple[int, int] | None]:
    """Breadth-first tree from start: each reached vertex maps to (parent,
    edge id), start to None, in discovery order.  Each vertex's edges are
    taken ascending, and only vertices in `allowed` (every vertex when
    None) are entered.

    It is the package's one connectivity search.  Four graph walks keep
    their own loops: `bp._sides` advances two searches in turn so that a
    bridge costs only its smaller side, and does so on vertex and edge
    bitmasks (the program's annotations), `width._bfs` takes neighbours by
    degree, on which the ranking of `width.edge_order` depends,
    `width._reachable_outside`, the step of the exact treewidth search,
    walks vertex masks, and `_separating_vertices`, the pass behind
    `Graph.separator`, needs depth-first low-link values.  Connectivity
    built up edge by edge goes through one union-find root lookup
    (`find`), shared by `safe_split_subset` and `width.order_bound`.
    """
    incident, edges = g.incident, g.edges
    tree = {start: None}
    queue = [start]
    for u in queue:
        for e in incident[u]:
            a, b = edges[e]
            w = b if a == u else a
            if w not in tree and (allowed is None or w in allowed):
                tree[w] = (u, e)
                queue.append(w)
    return tree


def tree_path(tree: dict[int, tuple[int, int] | None], v: int) -> list[int]:
    """Edge ids on the path of a `search` tree from its start to v."""
    path = []
    while tree[v] is not None:
        v, e = tree[v]
        path.append(e)
    return path[::-1]


def connected_components(g: Graph, removed=()) -> list[frozenset[int]]:
    """Partition of the vertices outside `removed` into maximal connected
    sets of g minus `removed`, in order of their smallest vertex; with
    nothing removed, `g.components`."""
    return _components(g, removed) if removed else list(g.components)


def _components(g: Graph, removed=()) -> list[frozenset[int]]:
    """One `search` from each vertex outside `removed` that no earlier
    search reached."""
    allowed = set(range(g.n)).difference(removed) if removed else None
    seen = set(removed)
    comps = []
    for s in range(g.n):
        if s not in seen:
            comp = frozenset(search(g, s, allowed))
            seen |= comp
            comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return len(g.components) <= 1


def _first_separator(g: Graph, start: int = 0, cut_vertices: bool = True) -> tuple[int, ...] | None:
    """`Graph.separator`'s search with the pair scan starting at `start`,
    after the cut-vertex pass, which runs only when `cut_vertices` is set.

    The caller vouches for what is skipped: that g has no cut vertex
    when the pass is off, and no separating pair {u, v} with u < start.
    `minors.three_connected_minor` knows both after a reduction, since
    every separator of the reduced graph separates the graph before it.
    """
    if cut_vertices and g.n > 1 and (cut := _separating_vertices(g)):
        return (cut[0],)
    for u in range(start, g.n if g.n > 2 else 0):
        if cut := _separating_vertices(g, u):
            return u, cut[0]
    return None


def _separating_vertices(g: Graph, removed: int = -1) -> list[int]:
    """Vertices v != removed, ascending, such that g - {removed, v} is
    disconnected or empty: one articulation-point pass over g - removed.

    When v leaves, its component of g - removed falls into one piece per
    DFS child w with low(w) >= disc(v), plus the piece holding v's DFS
    parent; the other components stay as they are.  The walk keeps no
    stack and no iterator per vertex: the parent links lead back, and
    the next child is the least unreached neighbour, read off `adj_mask`
    and a mask of the unreached vertices (which leaves out `removed`).
    A vertex's low-link starts as the least discovery time among its
    neighbours when it is reached: those already reached are its
    ancestors, the others get a discovery time above its own, and so
    does `removed`.  Counting the tree edge to the parent changes no
    test, since low(w) >= disc(v) holds with it exactly when without.
    `_first_separator` runs it on g, then on g - u for u = 0, 1, ...
    until one returns a vertex, once per graph object.
    """
    n, adj, adj_mask = g.n, g.adj, g.adj_mask
    unreached = (1 << n) - 1
    disc = [n + 1] * n  # discovery time from 1; n + 1 = not reached
    pieces = [1] * n  # the piece holding the DFS parent; a root's is set to 0
    if 0 <= removed < n:
        unreached ^= 1 << removed
        pieces[removed] = -n  # never counts as separating
    if unreached.bit_count() <= 1:
        return [v for v in range(n) if v != removed]  # g - {removed, v} is empty
    low = [0] * n
    parent = [-1] * n
    components = clock = 0
    while unreached:
        bit = unreached & -unreached
        unreached ^= bit
        u = bit.bit_length() - 1
        components += 1
        clock += 1
        disc[u] = low[u] = clock
        pieces[u] = 0
        while True:
            if rest := adj_mask[u] & unreached:
                bit = rest & -rest
                unreached ^= bit
                w = bit.bit_length() - 1
                clock += 1
                disc[w] = clock
                low[w] = min(map(disc.__getitem__, adj[w]))
                parent[w] = u
                u = w
                continue
            p = parent[u]
            if p < 0:
                break
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= disc[p]:
                pieces[p] += 1
            u = p
    least = 3 - components  # pieces that make v separating
    return [v for v, k in enumerate(pieces) if k >= least]


def is_3_connected(g: Graph) -> bool:
    """At least 4 vertices and no separator of size at most 2 (`Graph.separator`)."""
    return g.n >= 4 and g.separator is None


def split_all(g: Graph, requests: list[SplitRequest]) -> tuple[Graph, list[tuple[int, int]]]:
    """Apply every split in one pass over the edges; returns the split
    graph and (v1, v2) id pairs.

    Split i replaces v by v1 (adjacent to side1), which keeps the id of
    v, and v2 (adjacent to side2), which takes the fresh id n + i.  Edge
    ids are preserved, so the variables of the two graphs are the same.
    Request vertices must be pairwise distinct and non-adjacent, so that
    each edge moves at most one end and every request partitions the
    neighbourhood it has in g.
    """
    verts = {r.vertex for r in requests}
    if len(verts) != len(requests):
        raise ValueError("duplicate split vertices")
    moved = {}  # (split vertex, neighbour on side2) -> v2
    for i, r in enumerate(requests):
        r.validate(g)
        if adjacent := [w for w in g.adj[r.vertex] if w in verts]:
            raise ValueError(f"split vertices {r.vertex} and {adjacent[0]} are adjacent")
        for w in r.side2:
            moved[r.vertex, w] = g.n + i
    edges = tuple((moved.get((u, w), u), moved.get((w, u), w)) for u, w in g.edges)
    return Graph(g.n + len(requests), edges), [(r.vertex, g.n + i) for i, r in enumerate(requests)]


def greedy_independent_set(g: Graph, candidates: set[int] | list[int]) -> list[int]:
    """Greedy by ascending vertex id; size >= ceil(|candidates|/(maxdeg+1))."""
    chosen = []
    blocked = set()
    for v in sorted(candidates):
        if v in blocked:
            continue
        chosen.append(v)
        blocked.add(v)
        blocked.update(g.adj[v])
    return chosen


def find(parent: list[int], v: int) -> int:
    """The root of v in a union-find forest, halving its path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def safe_split_subset(g: Graph, requests: list[SplitRequest]) -> list[SplitRequest]:
    """Subset of at least ceil(k/3) splits that keeps the graph connected.

    Requires g 3-connected and the request vertices independent.  The
    selection follows the link-contraction argument: split everything and
    add one link edge (v1, v2) per split; the splits whose links are
    internal to a component of the split graph, or outside a spanning
    forest of the component contraction, keep it connected.  One
    union-find sweep joins the split graph's edges, then takes the links
    in request order: a link whose ends are already joined is kept, any
    other joins them and is dropped.
    """
    if not is_3_connected(g):
        raise ValueError("graph must be 3-connected")
    split_graph, pairs = split_all(g, requests)
    parent = list(range(split_graph.n))
    for u, w in split_graph.edges:
        parent[find(parent, u)] = find(parent, w)
    result = []
    for r, (v1, v2) in zip(requests, pairs):
        a, b = find(parent, v1), find(parent, v2)
        if a == b:
            result.append(r)
        else:
            parent[a] = b
    check, _ = split_all(g, result)
    if not is_connected(check):
        raise AssertionError("selected splits disconnected the graph")
    return result


# --- text format ------------------------------------------------------------
#
# p graph <n> <m>
# e <u> <v>        (1-indexed, edge id = order of appearance)
# lines starting with '#' are comments


def graph_to_text(g: Graph) -> str:
    lines = [f"p graph {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def edge_from_line(lines: list[str], i: int, u: int, v: int, n: int, seen: dict) -> tuple[int, int]:
    """The 0-based edge of the `e u v` line i of `lines` in a graph on
    vertices 1..n.  `seen` maps each edge accepted so far to its line
    number; an endpoint out of range, a loop or a parallel edge raises a
    ValueError naming the line, in the file's 1-based ids."""
    if not (1 <= u <= n and 1 <= v <= n):
        raise error(lines, i, f"endpoint outside 1..{n}")
    if u == v:
        raise error(lines, i, f"loop at vertex {u}")
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise error(lines, i, f"parallel edge {key}, first on line {seen[key]}")
    seen[key] = i + 1
    return u - 1, v - 1


def graph_from_text(text: str) -> Graph:
    n = None
    m = None
    first: dict = {}  # "p" -> the header's line index
    edges = []
    seen: dict = {}
    lines, rows = lines_of(text)
    for i, fields in rows:
        if not fields or fields[0][0] == "#":
            continue
        if fields[0] == "p":
            n, m = header(lines, i, fields, first, "graph")
        elif fields[0] == "e":
            if n is None:
                raise error(lines, i, "edge line before header")
            try:
                u, v = map(int, fields[1:])
            except ValueError:
                u, v = ints(lines, i, fields[1:], 2)  # raises the error naming the line
            edges.append(edge_from_line(lines, i, u, v, n, seen))
        else:
            raise error(lines, i, f"unrecognized line: {lines[i].strip()}")
    if n is None:
        raise ValueError("missing header")
    if m != len(edges):
        raise ValueError(f"header announces {m} edges, found {len(edges)}")
    return Graph(n, tuple(edges))
