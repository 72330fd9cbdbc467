"""Treewidth oracles and branch decompositions.

Exact treewidth is capped at 16 vertices.  It computes the minor-min-degree
lower bound and the min-fill upper bound first and is done when they meet.
Otherwise it decides each width k between them by a layered search over
elimination prefixes, keeping only prefixes whose every step leaves at most
k later neighbours, and stopping at k + 1 vertices left (any order of the
rest then has width at most k).  Beyond the cap the bound pair alone is
reported.  Branch decompositions are rooted binary trees over edge ids;
every non-root node induces a cut whose order is the number of boundary
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph

TREEWIDTH_EXACT_CAP = 16


class DeskScaleError(ValueError):
    """Input exceeds the cap under which an exact oracle is affordable."""


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
        raise DeskScaleError(f"n={g.n} exceeds exact treewidth cap {TREEWIDTH_EXACT_CAP}")
    if g.n == 0:
        return -1
    lower, upper = treewidth_lower_bound(g), treewidth_upper_bound(g)
    return next((k for k in range(lower, upper) if _width_at_most(g.adj_mask, g.n, k)), upper)


def treewidth_lower_bound(g: Graph) -> int:
    """Minor-min-degree lower bound (contract a min-degree vertex into
    its least-degree neighbor and repeat)."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    lb = 0
    while adj:
        d, u = min((len(adj[v]), v) for v in adj)
        lb = max(lb, d)
        if d == 0:
            del adj[u]
            continue
        _, w = min((len(adj[x]), x) for x in adj[u])
        # contract u into w
        for x in adj[u]:
            adj[x].discard(u)
            if x != w:
                adj[x].add(w)
                adj[w].add(x)
        del adj[u]
        adj[w].discard(w)
    return lb


def treewidth_upper_bound(g: Graph) -> int:
    """Min-fill elimination upper bound."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    width = 0
    while adj:
        best = None
        for v in sorted(adj):
            nb = adj[v]
            fill = 0
            nbl = sorted(nb)
            for i, a in enumerate(nbl):
                for b in nbl[i + 1:]:
                    if b not in adj[a]:
                        fill += 1
            if best is None or fill < best[0]:
                best = (fill, v)
        _, v = best
        nb = adj.pop(v)
        width = max(width, len(nb))
        for a in nb:
            adj[a].discard(v)
        nbl = sorted(nb)
        for i, a in enumerate(nbl):
            for b in nbl[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    return width


def treewidth_bounds(g: Graph) -> tuple[int, int, str]:
    """(lower, upper, provenance); exact when the graph is small enough."""
    if g.n <= TREEWIDTH_EXACT_CAP:
        tw = treewidth_exact(g)
        return tw, tw, "exact-dp"
    return treewidth_lower_bound(g), treewidth_upper_bound(g), "mmd-lower/minfill-upper"


# --- branch decompositions ---------------------------------------------------


@dataclass(frozen=True)
class BranchDecomposition:
    """Rooted binary tree whose leaves are in bijection with edge ids.

    nodes[i] is either ('leaf', edge_id) or ('node', left_id, right_id);
    ids are assigned in construction (preorder), root is node 0.
    """

    nodes: tuple[tuple, ...]
    root: int = 0

    @staticmethod
    def from_nested(structure) -> "BranchDecomposition":
        """structure: edge id, or a pair (left, right) of structures."""
        nodes: list = []
        stack = [(structure, None, 0)]  # (structure, parent id, child slot)
        while stack:
            s, parent, slot = stack.pop()
            my = len(nodes)
            if parent is not None:
                nodes[parent][slot] = my
            if isinstance(s, int):
                nodes.append(("leaf", s))
            else:
                left, right = s
                nodes.append(["node", None, None])
                stack += [(right, my, 2), (left, my, 1)]
        return BranchDecomposition(tuple(tuple(node) for node in nodes))

    @cached_property
    def preorder(self) -> tuple[int, ...]:
        """Node ids reachable from the root, every parent before its children."""
        order = []
        stack = [self.root]
        while stack:
            i = stack.pop()
            order.append(i)
            node = self.nodes[i]
            if node[0] == "node":
                stack += [node[2], node[1]]
        return tuple(order)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        d = [0] * len(self.nodes)
        for i in self.preorder:
            node = self.nodes[i]
            if node[0] == "node":
                d[node[1]] = d[node[2]] = d[i] + 1
        return tuple(d)

    @cached_property
    def edges_below(self) -> tuple[frozenset, ...]:
        out: list = [None] * len(self.nodes)
        for i in reversed(self.preorder):
            node = self.nodes[i]
            out[i] = frozenset((node[1],)) if node[0] == "leaf" else out[node[1]] | out[node[2]]
        return tuple(out)

    @property
    def leaf_edges(self) -> frozenset:
        return self.edges_below[self.root]

    def validate(self, g: Graph) -> None:
        leaves = [n[1] for n in self.nodes if n[0] == "leaf"]
        if sorted(leaves) != list(range(g.m)):
            raise ValueError("leaves are not a bijection with the edge ids")


@dataclass(frozen=True)
class Cut:
    """Edge partition induced by the tree edge above `node_id`."""

    node_id: int
    depth: int
    e1: tuple[int, ...]
    e2: tuple[int, ...]
    boundary: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.boundary)


def cut_boundary(g: Graph, e1) -> tuple[int, ...]:
    """Vertices incident to edges on both sides of the partition."""
    e1 = set(e1)
    side1 = set()
    side2 = set()
    for e, (u, v) in enumerate(g.edges):
        (side1 if e in e1 else side2).update((u, v))
    return tuple(sorted(side1 & side2))


def all_cuts(t: BranchDecomposition, g: Graph) -> list[Cut]:
    """One cut per non-root node; a single-leaf tree yields the trivial cut.

    Boundaries come from one bottom-up pass: a vertex is on a node's
    boundary exactly when some but not all of its incident edges lie below
    the node (`cut_boundary` is the same definition, one cut at a time).
    """
    degree = [len(inc) for inc in g.incident]
    counts: dict[int, dict[int, int]] = {}  # node -> vertex -> incident edges below
    boundary: dict[int, tuple[int, ...]] = {}
    for i in reversed(t.preorder):
        node = t.nodes[i]
        if node[0] == "leaf":
            count = dict.fromkeys(g.edges[node[1]], 1)
        else:
            count, other = counts.pop(node[1]), counts.pop(node[2])
            if len(count) < len(other):
                count, other = other, count
            for v, k in other.items():
                count[v] = count.get(v, 0) + k
        counts[i] = count
        boundary[i] = tuple(sorted(v for v, k in count.items() if k < degree[v]))
    cuts = []
    every = frozenset(range(g.m))
    for i in range(len(t.nodes)):
        if i == t.root and len(t.nodes) > 1:
            continue
        below = t.edges_below[i]
        cuts.append(Cut(i, t.depth[i], tuple(sorted(below)), tuple(sorted(every - below)), boundary[i]))
    return cuts


def max_order_cut(t: BranchDecomposition, g: Graph) -> Cut:
    """Cut of maximum order; ties broken by depth (deepest wins), then id."""
    cuts = all_cuts(t, g)
    return max(cuts, key=lambda c: (c.order, c.depth, -c.node_id))


def width_of(t: BranchDecomposition, g: Graph) -> int:
    return max((c.order for c in all_cuts(t, g)), default=0)


def _bipartition(g: Graph, edge_ids: list[int]) -> tuple[list[int], list[int]]:
    """Balanced split of edge_ids minimizing the boundary of each half
    against the rest of the whole graph, by 2-swap hill climbing.

    The cost is (max(ca, cb), ca + cb), where ca (cb) counts the vertices
    with some but not all of their incident edges in e1 (e2).  Swapping
    x in e1 with y in e2 moves an e1 edge to e2 at the ends of x and one
    back at the ends of y, so per-vertex changes of ca and cb for either
    move give the swap's cost in O(1), and only those (at most four)
    vertices change when a swap is kept.
    """
    if len(edge_ids) == 2:
        # the one swap mirrors the split, which keeps its cost
        return [edge_ids[0]], [edge_ids[1]]
    half = len(edge_ids) // 2
    e1 = list(edge_ids[:half])
    e2 = list(edge_ids[half:])
    ends = g.edges
    touched = {v for e in edge_ids for v in ends[e]}
    degree = {v: len(g.incident[v]) for v in touched}
    in1 = dict.fromkeys(touched, 0)  # incident edges in e1
    in2 = dict.fromkeys(touched, 0)  # incident edges in e2
    for e in e1:
        for v in ends[e]:
            in1[v] += 1
    for e in e2:
        for v in ends[e]:
            in2[v] += 1
    # Change in ca and cb when v gains an e1 edge from e2 (up) or loses
    # one to e2 (down).
    up_a, up_b, down_a, down_b = {}, {}, {}, {}

    def refresh(v):
        n1, n2, d = in1[v], in2[v], degree[v]
        on1, on2 = 0 < n1 < d, 0 < n2 < d
        up_a[v] = (0 < n1 + 1 < d) - on1
        up_b[v] = (0 < n2 - 1 < d) - on2
        down_a[v] = (0 < n1 - 1 < d) - on1
        down_b[v] = (0 < n2 + 1 < d) - on2
        return on1, on2

    ca = cb = 0
    for v in touched:
        on1, on2 = refresh(v)
        ca += on1
        cb += on2

    best = (max(ca, cb), ca + cb)
    improved = True
    passes = 0
    while improved and passes < 8:
        improved = False
        passes += 1
        for i in range(len(e1)):
            a, b = ends[e1[i]]
            base_a = ca + down_a[a] + down_a[b]
            base_b = cb + down_b[a] + down_b[b]
            for j, y in enumerate(e2):
                c, d = ends[y]
                na = base_a + up_a[c] + up_a[d]
                nb = base_b + up_b[c] + up_b[d]
                # an end shared by both edges keeps its counts
                shared = c if c == a or c == b else d if d == a or d == b else None
                if shared is not None:
                    na -= down_a[shared] + up_a[shared]
                    nb -= down_b[shared] + up_b[shared]
                cost = (na if na > nb else nb, na + nb)
                if cost < best:
                    best = cost
                    ca, cb = na, nb
                    for v in (a, b):
                        in1[v] -= 1
                        in2[v] += 1
                    for v in (c, d):
                        in1[v] += 1
                        in2[v] -= 1
                    for v in {a, b, c, d}:
                        refresh(v)
                    e1[i], e2[j] = y, e1[i]
                    a, b = c, d
                    base_a = ca + down_a[a] + down_a[b]
                    base_b = cb + down_b[a] + down_b[b]
                    improved = True
    return sorted(e1), sorted(e2)


def heuristic_branch_decomposition(g: Graph) -> BranchDecomposition:
    """Recursive balanced edge bipartition; deterministic."""
    if g.m == 0:
        raise ValueError("graph has no edges")

    def build(edge_ids):
        if len(edge_ids) == 1:
            return edge_ids[0]
        e1, e2 = _bipartition(g, edge_ids)
        return (build(e1), build(e2))

    return BranchDecomposition.from_nested(build(sorted(range(g.m))))


def branchwidth_bounds(g: Graph) -> tuple[int, int]:
    """(lower, upper) bracket on the branchwidth.

    lower comes from the treewidth comparison bw >= ceil(2 tw / 3) (valid
    once bw >= 2), upper is the width of the best heuristic decomposition
    found.  Width <= 1 is the comparison's blind spot, so such graphs
    report (width, width) directly.
    """
    if g.m == 0:
        return 0, 0
    upper = width_of(heuristic_branch_decomposition(g), g)
    if upper <= 1:
        return upper, upper
    tw_lb, _, _ = treewidth_bounds(g)
    lower = -(-2 * tw_lb // 3)
    return min(lower, upper), upper
