"""Treewidth oracles, edge orders and the cut an order induces.

Exact treewidth is capped at 16 vertices.  It computes the minor-min-degree
lower bound and the min-fill upper bound first and is done when they meet.
Otherwise it decides each width k between them by a layered search over
elimination prefixes, keeping only prefixes whose every step leaves at most
k later neighbours, and stopping at k + 1 vertices left (any order of the
rest then has width at most k).  `treewidth_estimate`, the value the rest
of the library reads, is the exact treewidth up to the cap and the
minor-min-degree lower bound beyond.

One edge order per graph serves the BP builder and the certificate (and,
in the test suite, the branchwidth upper bound of `tests/lemmas.py`):
`edge_order` ranks the edges along a few candidate vertex orders and
keeps the one with the smallest `order_bound`, the size bound of the
builder's program.  `order_cut` sweeps an order once for the
maximum-order cut of the left-deep branch decomposition over it, whose
cuts split off one edge or a prefix of the order; the order of a cut is
its number of boundary vertices.  General branch decompositions live in
the test suite.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .graphs import Graph, find

TREEWIDTH_EXACT_CAP = 16


def _reachable_outside(adj_mask, v, allowed):
    """Vertices outside `allowed` reachable from v through `allowed`."""
    visited = 1 << v
    frontier = adj_mask[v]
    outside = 0
    while True:
        visited |= frontier
        outside |= frontier & ~allowed
        nxt = 0
        inner = frontier & allowed
        while inner:
            low = inner & -inner
            inner ^= low
            nxt |= adj_mask[low.bit_length() - 1]
        frontier = nxt & ~visited
        if not frontier:
            return outside


def _width_at_most(adj_mask, n: int, k: int) -> bool:
    """Whether some elimination order of the graph has width at most k.

    Eliminating v after the set S costs |Q(S, v)|, the number of vertices
    outside S + v that v reaches through S.  Layer i holds the i-sets
    that can be eliminated first with every step costing at most k.  A
    set S with n - |S| <= k + 1 suffices: the rest go in any order, since
    each later Q lies among the at most k other vertices left.
    """
    full = (1 << n) - 1
    layer = {0}
    for _ in range(n - k - 1):
        nxt = set()
        for s in layer:
            rest = full & ~s
            while rest:
                low = rest & -rest
                rest ^= low
                t = s | low
                if t not in nxt and _reachable_outside(adj_mask, low.bit_length() - 1, s).bit_count() <= k:
                    nxt.add(t)
        layer = nxt
    return bool(layer)


def treewidth_exact(g: Graph) -> int:
    """Exact treewidth; n <= 16 only.

    The minor-min-degree lower bound and the min-fill upper bound come
    first; when they meet, that is the treewidth.  Otherwise it is the
    first k in [lower, upper) that `_width_at_most` accepts (its docstring
    says why it may stop at k + 1 vertices left), else upper.
    """
    if g.n > TREEWIDTH_EXACT_CAP:
        raise ValueError(f"n={g.n} exceeds exact treewidth cap {TREEWIDTH_EXACT_CAP}")
    if g.n == 0:
        return -1
    lower, upper = treewidth_lower_bound(g), treewidth_upper_bound(g)
    return next((k for k in range(lower, upper) if _width_at_most(g.adj_mask, g.n, k)), upper)


def treewidth_lower_bound(g: Graph) -> int:
    """Minor-min-degree lower bound (contract a min-degree vertex into
    its least-degree neighbor and repeat), by `_contraction_degree`."""
    return _contraction_degree(g, g.n)


def _contraction_degree(g: Graph, enough: int) -> int:
    """The minor-min-degree bound, or a value at least `enough` as soon
    as the bound reaches it.

    Each step takes the least (degree, vertex), deletes it when isolated
    and otherwise contracts it into its least (degree, id) neighbour; the
    bound is the largest degree taken.  The (degree, vertex) entries sit
    on a heap, pushed again whenever a contraction changes a degree, and
    an entry whose vertex is gone or whose degree is out of date is
    skipped when popped, as in `_min_fill`: the vertex taken is the one a
    scan of every degree would take.
    """
    adj = [set(a) for a in g.adj]
    heap = [(len(a), v) for v, a in enumerate(adj)]
    heapify(heap)
    gone = [False] * g.n
    lb = 0
    while heap and lb < enough:
        d, u = heappop(heap)
        if gone[u] or d != len(adj[u]):
            continue
        gone[u] = True
        lb = max(lb, d)
        nbrs = adj[u]
        if not nbrs:
            continue
        _, w = min((len(adj[x]), x) for x in nbrs)
        into = adj[w]
        for x in nbrs:
            adj[x].discard(u)
            if x != w:
                adj[x].add(w)
                into.add(x)
        for x in nbrs:
            heappush(heap, (len(adj[x]), x))
    return lb


def _min_fill(g: Graph) -> tuple[list[int], int]:
    """Min-fill elimination order (smallest id on ties) and its width.

    A vertex's fill is the number of pairs of its neighbours not yet
    adjacent: with d neighbours, (d(d - 1) - sum over neighbours a of
    |N(a) & N(u)|) / 2, since that sum counts every adjacent pair twice;
    it is read off `adj_mask` copies by popcount.  Eliminating v changes
    it only at v's neighbours, whose neighbourhoods change, and, when v's
    fill was positive so that edges were added among its neighbours, at
    the other vertices that see at least two of them; only those are
    recounted.  Every other fill is unchanged, so the heap receives the
    same entries as if all fills were recounted, and the order is the
    same.  The next vertex is the least (fill, id) on a heap whose
    entries go stale when a fill is recounted, and a stale entry is
    skipped when popped.
    """
    adj = list(g.adj_mask)

    def fill(u: int) -> int:
        nu = rest = adj[u]
        twice = 0
        while rest:
            low = rest & -rest
            rest ^= low
            twice += (adj[low.bit_length() - 1] & nu).bit_count()
        d = nu.bit_count()
        return (d * (d - 1) - twice) >> 1

    fills = [fill(u) for u in range(g.n)]
    heap = [(f, u) for u, f in enumerate(fills)]
    heapify(heap)
    done = [False] * g.n
    order = []
    width = 0
    while heap:
        f, v = heappop(heap)
        if done[v] or f != fills[v]:
            continue
        done[v] = True
        order.append(v)
        nb = rest = adj[v]
        width = max(width, nb.bit_count())
        gone = 1 << v
        seen = 0  # vertices adjacent to a neighbour of v
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            adj[a] = (adj[a] | nb) & ~(gone | low)
            seen |= adj[a]
        touched = nb
        if f:  # v's fill: edges were added among its neighbours
            seen &= ~nb
            while seen:
                low = seen & -seen
                seen ^= low
                if (adj[low.bit_length() - 1] & nb).bit_count() >= 2:
                    touched |= low
        while touched:
            low = touched & -touched
            touched ^= low
            u = low.bit_length() - 1
            f = fill(u)
            if f != fills[u]:
                fills[u] = f
                heappush(heap, (f, u))
    return order, width


def treewidth_upper_bound(g: Graph) -> int:
    """Min-fill elimination upper bound."""
    return _min_fill(g)[1]


def treewidth_estimate(g: Graph) -> tuple[int, str]:
    """(value, provenance), the one treewidth value the library reads:
    the exact treewidth up to the cap ("exact-dp"), else the
    minor-min-degree lower bound, under the CSV's "mmd-lower/minfill-upper"
    label.  It never exceeds the treewidth, so the certificate may read it."""
    if g.n <= TREEWIDTH_EXACT_CAP:
        return treewidth_exact(g), "exact-dp"
    return treewidth_lower_bound(g), "mmd-lower/minfill-upper"


# --- the order's cut ---------------------------------------------------------


def order_cut(g: Graph, order) -> tuple[int, ...]:
    """Edge side of the maximum-order cut of the left-deep caterpillar over
    an edge order, sorted.

    The caterpillar's cuts split off one edge or a prefix order[:i] with
    1 < i < len(order); a vertex is on a cut's boundary when some but not
    all of its incident edges are on the cut's side, and the boundary's
    size is the cut's order.  One sweep keeps per-vertex counts of the
    edges seen and the prefix's order, and offers the cuts deepest first:
    order[0], order[1], then order[:i] before order[i] for each i >= 2;
    a cut replaces the best only when its order is strictly larger.  A
    single-edge order gives the trivial cut (the whole order).
    """
    degree = [len(inc) for inc in g.incident]
    seen = [0] * g.n
    best, most, size = (), -1, 0
    for i, e in enumerate(order):
        if i > 1 and size > most:
            best, most = order[:i], size
        leaf = sum(degree[v] > 1 for v in g.edges[e])
        if leaf > most:
            best, most = (e,), leaf
        for v in g.edges[e]:
            seen[v] += 1
            size += (seen[v] < degree[v]) - (seen[v] > 1)
    return tuple(sorted(best))


# --- edge orders -------------------------------------------------------------


def order_bound(g: Graph, order) -> int:
    """n + sum over ranks r of 2^max(|dC_r| - 1, 0).

    Rank r is the position of an edge in `order`.  C_r is the component
    of the edges ranked >= r that holds the edge of rank r, and dC_r the
    vertices of C_r that touch an edge ranked below r.  One union-find
    sweep adds the edges from the highest rank down: a vertex counts
    toward its component's boundary from the time it joins until its
    lowest-ranked edge is added.  `bp.build_well_structured_bp` says why
    this bounds the size of its program.
    """
    low = [len(order)] * g.n  # rank of the lowest-ranked edge at each vertex
    for r, e in enumerate(order):
        for v in g.edges[e]:
            low[v] = min(low[v], r)
    parent = list(range(g.n))
    boundary = [1] * g.n  # per root: vertices of its component that still have a lower-ranked edge
    total = g.n
    for r in reversed(range(len(order))):
        a, b = g.edges[order[r]]
        root, other = find(parent, a), find(parent, b)
        if root != other:
            parent[other] = root
            boundary[root] += boundary[other]
        boundary[root] -= (low[a] == r) + (low[b] == r)
        total += 1 << max(boundary[root] - 1, 0)
    return total


def _bfs(neighbours, start: int) -> tuple[list[int], list[int]]:
    """The vertices reached from start in breadth-first order, and the
    distance of every vertex from start (-1 when not reached); the last
    vertex reached is a farthest one."""
    dist = [-1] * len(neighbours)
    dist[start] = 0
    queue = [start]
    for u in queue:
        d = dist[u] + 1
        for w in neighbours[u]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return queue, dist


def edge_order(g: Graph) -> tuple[int, ...]:
    """Edge ids, lowest rank first: the candidate with the smallest
    `order_bound`, the first on ties.

    Each candidate ranks edges by (earlier endpoint, later endpoint) in a
    vertex order: breadth-first from each of the three most eccentric
    vertices (ties by id; neighbours taken by degree, then id, and
    unreached vertices last, by id), then the min-fill elimination order.
    A vertex's eccentricity, over the vertices it reaches, does not
    depend on the order neighbours are taken in; it still costs one
    search per vertex.
    """
    neighbours = [sorted(g.adj[u], key=lambda w: (len(g.adj[w]), w)) for u in range(g.n)]

    def eccentricity(v: int) -> int:
        queue, dist = _bfs(neighbours, v)
        return dist[queue[-1]]

    starts = sorted(range(g.n), key=lambda v: (-eccentricity(v), v))[:3]
    orders = []
    for vertices in [_bfs(neighbours, s)[0] for s in starts] + [_min_fill(g)[0]]:
        pos = list(range(g.n, 2 * g.n))  # vertices a search misses follow by id
        for i, v in enumerate(vertices):
            pos[v] = i
        keys = [(pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a]) for a, b in g.edges]
        orders.append(tuple(sorted(range(g.m), key=keys.__getitem__)))
    return min(orders, key=lambda order: order_bound(g, order))
