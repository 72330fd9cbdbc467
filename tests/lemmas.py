"""Desk-scale checks of the lemmas behind the DNNF lower bound.

Rectangles, proof trees, sub-constraints and the adversarial cover game,
all by enumeration and so only for inputs small enough to enumerate.  The
library holds the pipeline, its checkers and the certificate; this module
holds what only the tests use to check the lemmas those rest on:

* a complete DNNF accepts, through each gate, a product set A x B over
  (var(gate), rest) (`gate_rectangle`);
* a rectangle that respects T(G, c) fixes the A-side parity at every
  boundary vertex (`induced_subconstraint`), and on the adversary's safe
  vertices those sub-constraints cap it at 2^(m - n - k + 1) models
  (`rectangle_cap_check`, counted by `conjoin_subconstraints_count`);
* the cover game played with a circuit's own rectangles
  (`game_simulate`) and the balanced cover drawn from its proof trees
  (`extract_balanced_cover`).

It also keeps the paper's all-pairs compilation (`compile_all_pairs`),
with a gate for every (program node, vertex) pair and the constant 1 at
every sink, as the reference the library's compiler must equal once its
constants are folded (`propagate_constants`), up to gate numbering
(`same_circuit`); smoothing, which the package only checks, by folding
the constants and then padding the folded circuit (`reference_smooth`);
the path-wise read-once check (`validate_read_once`) the BP validator's
condition 3 implies; conditioning and forgetting on circuits, for replaying a minor
trace (`replay_on_circuit`); the truth tables of a circuit and of a
formula (`nnf_truth_table`, `tseitin_truth_table`) that the tests read,
and the pointwise evaluators and reference truth tables the truth-table engine
in `tseitinkit.oracles` is checked against; general branch
decompositions (`BranchDecomposition`, with `caterpillar` for the
left-deep one over an edge order), every cut of one (`all_cuts`) and
the maximum-order cut (`max_order_cut`), which `width.order_cut` must
match on caterpillars; every separator of size 1 or 2
(`separators_of_size`), of which a graph memoises only the first;
the induced subgraph with its edges in the order of their old ids
(`induced_subgraph`), and graphs with every edge subdivided
(`subdivided`); the minor-min-degree
bound rescanning every degree at each contraction
(`reference_treewidth_lower_bound`), which `width.treewidth_lower_bound`'s
heap must match;
`bp.expected_children` on set-form annotations
(`reference_expected_children`, with `annotation_sets` decoding the
library's masks); the min-fill order recounting every fill at every
step (`reference_min_fill`), the edge ranking with dict-keyed searches
(`reference_edge_order`) and the components from one `search` per
unreached vertex (`reference_components`); the vertex splits applied one
intermediate graph at a time (`reference_split_all`) and the safe splits
chosen by component contraction (`reference_safe_split_subset`), with
random independent split requests to compare them on
(`random_split_requests`); DPLL's branch choice read off every open
group of a state (`full_scan_branch_variable`); and resolution on
literal sets: traces built
from literal rows (`trace_of`, `clause`), the resolvent (`resolve`) and
the set-form pivot (`set_pivot`) the library's mask pivot is checked
against; and the seven text readers as they were when each built a `Line`
object for every line (`reference_*_from_text`, `reference_cnf_from_dimacs`),
which the library's readers must match object for object and message for
message, and the trace writer that formatted every literal of every step
(`reference_trace_to_text`), which the library's must match byte for byte.

The cover game: the cover player picks an uncovered model and the proof
tree accepting it; the adversary answers with a cut of the induced
variable tree; the cover player must then cover the model with a
rectangle for that partition drawn from the circuit (the models accepted
through one gate).  On a 3-connected graph the adversary's cut pins a
boundary, an independent subset of it, and a safe-split subset of that,
which caps every rectangle at 2^(m - n - k + 1) models; with 2^(m - n + 1)
models in total the game cannot end in fewer than 2^k rounds.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from tseitinkit.bounds import _CERT_FIELDS, AdamResponse, LowerBoundCertificate, adam_response
from tseitinkit.bp import BranchingProgram, _root, expected_children, validate_well_structured
from tseitinkit.graphs import Graph, SplitRequest, _separating_vertices, connected_components, is_3_connected, is_connected, search, split_all
from tseitinkit.minors import MinorResult
from tseitinkit.cnf import Cnf, _clause_problem
from tseitinkit.nnf import AND, CONST, LIT, OR, CircuitBuilder, Gate, NnfCircuit, _reachable, gate_values, is_smooth, restrict_to_root, root_value, validate_decomposable
from tseitinkit.oracles import BLOCK_BITS, parity, point, truth_table
from tseitinkit.recursion import run
from tseitinkit.resolution import ResolutionTrace, Step, _literal_bits
from tseitinkit.tseitin import Charge, TseitinFormula, is_satisfiable, model_count, satisfied
from tseitinkit.width import edge_order, order_bound, treewidth_estimate

RECT_CAP = 20


# --- graphs ------------------------------------------------------------------


def k4_with_pendant_path() -> Graph:
    """K4 on 0..3 plus the path 3-4-5."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
    return Graph(6, tuple(edges))


def octahedron() -> Graph:
    """K6 minus the perfect matching {0,1},{2,3},{4,5}."""
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if {u, v} not in ({0, 1}, {2, 3}, {4, 5})]
    return Graph(6, tuple(edges))


def separators_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    """All vertex sets of the given size whose removal disconnects g (or
    leaves no vertex), in ascending lexicographic order: the full listing
    the memoised `Graph.separator` must agree with.

    One articulation-point pass on g finds the single vertices, one on
    g - u for each u the pairs {u, v}.
    """
    if size == 1:
        return [(v,) for v in _separating_vertices(g)]
    if size == 2:
        return [(u, v) for u in range(g.n) for v in _separating_vertices(g, u) if v > u]
    raise ValueError("only sizes 1 and 2 are supported")


def induced_subgraph(g: Graph, vertices: set[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on the given vertices with dense ids, its edges in the
    order of their old ids, and the vertex map old -> new."""
    vmap = {v: i for i, v in enumerate(sorted(vertices))}
    edges = tuple((vmap[u], vmap[w]) for u, w in g.edges if u in vmap and w in vmap)
    return Graph(len(vmap), edges), vmap


def subdivided(g: Graph, s: int) -> Graph:
    """g with each edge (a, b), in edge order, replaced by a path from a
    to b through s new vertices, numbered from g.n on."""
    edges = []
    n = g.n
    for a, b in g.edges:
        path = [a, *range(n, n + s), b]
        edges += zip(path, path[1:])
        n += s
    return Graph(n, tuple(edges))


def random_shaped_graph(seed: int) -> Graph:
    """A seeded random graph on 1..24 vertices of one of five shapes, by
    seed mod 5: G(n, p), a tree, a forest, a connected graph plus
    isolated vertices, or two connected pieces; vertex ids are permuted
    and edge ids shuffled, so no shape lines up with the ids."""
    rng = random.Random(zlib.crc32(f"shape {seed}".encode()))
    n = rng.randint(1, 24)
    shape = seed % 5

    def connected(vertices):
        edges = {(rng.choice(vertices[:i]), v) for i, v in enumerate(vertices) if i}
        for _ in range(rng.randint(0, len(vertices))):
            if len(vertices) > 1:
                edges.add(tuple(rng.sample(vertices, 2)))
        return edges

    if shape == 0:
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < density}
    elif shape == 1:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
    elif shape == 2:
        edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.7}
    elif shape == 3:
        edges = connected(list(range(rng.randint(1, n))))
    else:
        cut = rng.randint(1, n - 1) if n > 1 else 1
        edges = connected(list(range(cut))) | connected(list(range(cut, n)))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = list({(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges})
    edges.sort()
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def reference_treewidth_lower_bound(g: Graph) -> int:
    """Minor-min-degree bound with a scan of every degree per step:
    contract the least (degree, vertex) into its least (degree, id)
    neighbour, delete it when isolated, and keep the largest degree."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    lb = 0
    while adj:
        d, u = min((len(adj[v]), v) for v in adj)
        lb = max(lb, d)
        if d == 0:
            del adj[u]
            continue
        _, w = min((len(adj[x]), x) for x in adj[u])
        for x in adj[u]:
            adj[x].discard(u)
            if x != w:
                adj[x].add(w)
                adj[w].add(x)
        del adj[u]
    return lb


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


@dataclass(frozen=True)
class Cut:
    """Edge partition induced by the tree edge above `node_id`."""

    node_id: int
    depth: int
    e1: tuple[int, ...]
    e2: tuple[int, ...]
    boundary: tuple[int, ...]  # its size is the order of the cut


def caterpillar(order) -> BranchDecomposition:
    """Left-deep decomposition over an edge order: the spine node above
    order[i] holds order[:i + 1], so its cuts split a prefix of the order
    from the rest."""
    if not order:
        raise ValueError("no edges to decompose")
    nested = order[0]
    for e in order[1:]:
        nested = (nested, e)
    return BranchDecomposition.from_nested(nested)


def cut_boundary(g: Graph, e1) -> tuple[int, ...]:
    """Vertices incident to edges on both sides of the partition."""
    e1 = set(e1)
    side1 = set()
    side2 = set()
    for e, (u, v) in enumerate(g.edges):
        (side1 if e in e1 else side2).update((u, v))
    return tuple(sorted(side1 & side2))


def edges_below(t: BranchDecomposition) -> tuple[frozenset, ...]:
    """The leaf edges below every node."""
    out: list = [None] * len(t.nodes)
    for i in reversed(t.preorder):
        node = t.nodes[i]
        out[i] = frozenset((node[1],)) if node[0] == "leaf" else out[node[1]] | out[node[2]]
    return tuple(out)


def all_cuts(t: BranchDecomposition, g: Graph) -> list[Cut]:
    """One cut per non-root node; a single-leaf tree yields the trivial cut.

    Boundaries come from one bottom-up pass: a vertex is on a node's
    boundary exactly when some but not all of its incident edges lie below
    the node.  `max_order_cut` picks the maximum of these cuts.
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
    below_of = edges_below(t)
    for i in range(len(t.nodes)):
        if i == t.root and len(t.nodes) > 1:
            continue
        below = below_of[i]
        cuts.append(Cut(i, t.depth[i], tuple(sorted(below)), tuple(sorted(every - below)), boundary[i]))
    return cuts


def max_order_cut(t: BranchDecomposition, g: Graph) -> Cut:
    """Cut of maximum order; ties broken by depth (deepest wins), then id."""
    return max(all_cuts(t, g), key=lambda c: (len(c.boundary), c.depth, -c.node_id))


def width_of(t: BranchDecomposition, g: Graph) -> int:
    return max((len(c.boundary) for c in all_cuts(t, g)), default=0)


def branchwidth_bounds(g: Graph) -> tuple[int, int]:
    """(lower, upper) bracket on the branchwidth.

    lower comes from the treewidth comparison bw >= ceil(2 tw / 3) (valid
    once bw >= 2), upper is the width of the caterpillar over
    `edge_order`.  Width <= 1 is the comparison's blind spot, so such
    graphs report (width, width) directly.
    """
    if g.m == 0:
        return 0, 0
    upper = width_of(caterpillar(edge_order(g)), g)
    if upper <= 1:
        return upper, upper
    tw_lb, _ = treewidth_estimate(g)
    lower = -(-2 * tw_lb // 3)
    return min(lower, upper), upper


# --- elimination orders ------------------------------------------------------


def reference_min_fill(g: Graph) -> tuple[list[int], int]:
    """Min-fill elimination order (smallest id on ties) and its width,
    recounting every vertex's fill at every step: the reference for
    `width._min_fill`, which recounts only around the eliminated vertex."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    order = []
    width = 0
    while adj:
        # fewest fill edges (neighbour pairs not yet adjacent), then smallest id
        v = min(adj, key=lambda u: (sum(b not in adj[a] for a, b in combinations(adj[u], 2)), u))
        order.append(v)
        nb = adj.pop(v)
        width = max(width, len(nb))
        for a in nb:
            adj[a].discard(v)
            adj[a] |= nb - {a}
    return order, width


def reference_bfs(neighbours, start: int) -> dict[int, int]:
    """Distances from start, keyed in breadth-first order."""
    dist = {start: 0}
    queue = [start]
    for u in queue:
        for w in neighbours[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_edge_order(g: Graph) -> tuple[int, ...]:
    """`width.edge_order` with every search keeping a distance dict and
    every candidate ranking edges by a sorted endpoint list, and the
    min-fill order from `reference_min_fill`: the reference the library's
    ranking must equal."""
    neighbours = [sorted(g.adj[u], key=lambda w: (len(g.adj[w]), w)) for u in range(g.n)]
    starts = sorted(range(g.n), key=lambda v: (-max(reference_bfs(neighbours, v).values()), v))[:3]
    orders = []
    for vertices in [list(reference_bfs(neighbours, s)) for s in starts] + [reference_min_fill(g)[0]]:
        pos = {v: i for i, v in enumerate(vertices)}  # vertices a search misses follow by id
        orders.append(tuple(sorted(range(g.m), key=lambda e: sorted(pos.get(v, g.n + v) for v in g.edges[e]))))
    return min(orders, key=lambda order: order_bound(g, order))


def reference_components(g: Graph) -> list[set[int]]:
    """The vertex sets of g's components in order of their smallest
    vertex, one `search` from each vertex no earlier search reached: the
    reference for `Graph.components`."""
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s not in seen:
            comp = set(search(g, s))
            seen |= comp
            comps.append(comp)
    return comps


def reference_split_vertex(g: Graph, req: SplitRequest) -> Graph:
    """Replace v by v1 (adjacent to side1) and v2 (adjacent to side2): v1
    keeps the id of v, v2 takes the fresh id n, and every edge keeps its
    id."""
    req.validate(g)
    v = req.vertex
    side2 = set(req.side2)
    v2 = g.n
    new_edges = []
    for u, w in g.edges:
        if u == v and w in side2:
            new_edges.append((v2, w))
        elif w == v and u in side2:
            new_edges.append((u, v2))
        else:
            new_edges.append((u, w))
    return Graph(g.n + 1, tuple(new_edges))


def reference_split_all(g: Graph, requests: list[SplitRequest]) -> tuple[Graph, list[tuple[int, int]]]:
    """The splits applied one at a time, one intermediate graph each, on
    pairwise distinct, non-adjacent request vertices: the reference for
    the one-pass `graphs.split_all`."""
    verts = [r.vertex for r in requests]
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate split vertices")
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if w in g.adj[u]:
                raise ValueError(f"split vertices {u} and {w} are adjacent")
    cur = g
    pairs = []
    for r in requests:
        cur = reference_split_vertex(cur, r)
        pairs.append((r.vertex, cur.n - 1))
    return cur, pairs


def reference_safe_split_subset(g: Graph, requests: list[SplitRequest]) -> list[SplitRequest]:
    """The safe splits by component contraction: split everything, keep
    the splits whose link (v1, v2) is internal to a component, and of the
    links between components those outside a spanning forest of the
    contraction, taken in id order: the reference for the one union-find
    sweep of `graphs.safe_split_subset`."""
    if not is_3_connected(g):
        raise ValueError("graph must be 3-connected")
    for r in requests:
        r.validate(g)
    if not requests:
        return []
    split_graph, pairs = reference_split_all(g, requests)
    comps = connected_components(split_graph)
    if len(comps) == 1:
        return list(requests)
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    l_in = [i for i, (v1, v2) in enumerate(pairs) if comp_of[v1] == comp_of[v2]]
    l_out = [i for i, (v1, v2) in enumerate(pairs) if comp_of[v1] != comp_of[v2]]
    parent = list(range(len(comps)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for i in l_out:
        a, b = find(comp_of[pairs[i][0]]), find(comp_of[pairs[i][1]])
        if a != b:
            parent[a] = b
            tree.add(i)
    return [requests[i] for i in sorted(set(l_in) | (set(l_out) - tree))]


def random_split_requests(g: Graph, rng: random.Random) -> list[SplitRequest]:
    """Splits of a random independent vertex set, in random order, each
    along a random proper partition of the vertex's neighbourhood."""
    vertices = list(range(g.n))
    rng.shuffle(vertices)
    chosen: list[int] = []
    for v in vertices[:rng.randint(0, g.n)]:
        if not any(w in g.adj[v] for w in chosen):
            chosen.append(v)
    requests = []
    for v in chosen:
        nbrs = list(g.adj[v])
        rng.shuffle(nbrs)
        cut = rng.randint(1, len(nbrs) - 1)
        requests.append(SplitRequest(v, tuple(nbrs[:cut]), tuple(nbrs[cut:])))
    return requests


# --- point evaluation and reference truth tables ----------------------------


def models(table: int) -> list[int]:
    """The assignments a truth table accepts, ascending."""
    data = table.to_bytes((table.bit_length() + 7) // 8, "little")
    return [8 * i + j for i, byte in enumerate(data) if byte for j in range(8) if (byte >> j) & 1]


def evaluate(d: NnfCircuit, mask: int) -> bool:
    return bool(gate_values(d, point(mask))[d.root])


def violated_at(t: TseitinFormula, mask: int, v: int) -> bool:
    """Whether the assignment violates the constraint at v."""
    return not parity(point(mask), t.graph.incident[v], t.charge[v])


def satisfies(t: TseitinFormula, mask: int) -> bool:
    return not any(violated_at(t, mask, v) for v in range(t.graph.n))


def nnf_truth_table(d: NnfCircuit) -> int:
    """Circuit value on all 2^num_vars assignments (bit i = assignment i)."""
    return truth_table(d.num_vars, lambda x: root_value(d, x))


def tseitin_truth_table(t: TseitinFormula) -> int:
    """Indicator of the models over all 2^m assignments (bit i = assignment i)."""
    return truth_table(t.graph.m, lambda x: satisfied(t, x))


def reference_truth_table(num_vars: int, column) -> int:
    """column(block) on all 2^num_vars assignments, where `block` is a
    numpy uint32 array of assignment masks and the result a bool array, or
    one bool for a constant; returned as `truth_table` returns it, an int
    whose bit i is assignment i."""
    out = np.empty(1 << num_vars, dtype=bool)
    step = 1 << min(num_vars, BLOCK_BITS)
    for start in range(0, len(out), step):
        out[start:start + step] = column(np.arange(start, start + step, dtype=np.uint32))
    return int.from_bytes(np.packbits(out, bitorder="little").tobytes(), "little")


def reference_cnf(cnf: Cnf, block):
    """Whether each assignment of the block satisfies every clause."""
    ok = True
    for cl in cnf.clauses:
        sat = False
        for lit in cl:
            sat = sat | (((block >> (abs(lit) - 1)) & 1) == (lit > 0))
        ok = ok & sat
    return ok


# --- formulas ----------------------------------------------------------------


@dataclass(frozen=True)
class SubConstraint:
    """Parity constraint on a non-empty proper subset of a vertex's edges."""

    vertex: int
    edge_ids: tuple[int, ...]
    parity: int

    def validate(self, t: TseitinFormula) -> None:
        inc = set(t.graph.incident[self.vertex])
        sub = set(self.edge_ids)
        if not sub or not sub < inc:
            raise ValueError(f"edge set must be a non-empty proper subset of E({self.vertex})")
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0/1")

    def holds(self, mask: int) -> bool:
        return bool(parity(point(mask), self.edge_ids, self.parity))


def conjoin_models(t: TseitinFormula, subs: list[SubConstraint]) -> list[int]:
    """Brute-force model set of t with extra sub-constraints conjoined."""
    return [mask for mask in models(tseitin_truth_table(t)) if all(s.holds(mask) for s in subs)]


def _sub_to_split(t: TseitinFormula, s: SubConstraint) -> SplitRequest:
    g = t.graph
    n1 = tuple(sorted(g.other_end(e, s.vertex) for e in s.edge_ids))
    n2 = tuple(sorted(set(g.adj[s.vertex]) - set(n1)))
    return SplitRequest(s.vertex, n1, n2)


def conjoin_subconstraints_count(t: TseitinFormula, subs: list[SubConstraint]) -> int:
    """Models of t with k sub-constraints on an independent set conjoined.

    Valid when t is satisfiable, the graph is connected, and splitting
    every sub-constraint vertex along its induced neighbor partition
    leaves the graph connected; the count is then 2^(m - n - k + 1).
    """
    g = t.graph
    if not is_satisfiable(t):
        raise ValueError("formula must be satisfiable")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    for s in subs:
        s.validate(t)
    if not subs:
        return model_count(t)
    requests = [_sub_to_split(t, s) for s in subs]
    split_graph, _ = split_all(g, requests)
    if not is_connected(split_graph):
        raise ValueError("split graph is disconnected; the count formula does not apply")
    k = len(subs)
    return 1 << (g.m - g.n - k + 1)


def apply_flips(mask: int, flips: set[int]) -> int:
    out = mask
    for e in flips:
        out ^= 1 << e
    return out


def sample_charges(n: int, count: int, seed: int = 0):
    """Deterministic charge sample; includes zero and covers both parities."""
    rng = random.Random(seed)
    out = [tuple([0] * n)]
    while len(out) < count:
        out.append(tuple(rng.randint(0, 1) for _ in range(n)))
    return out


# --- programs and compilation ------------------------------------------------


def bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def make_annotation(vertices, edge_ids, charge: dict[int, int]):
    """An annotation in set form: (vertex set, edge id set, charge on the
    vertex set)."""
    return (frozenset(vertices), frozenset(edge_ids), dict(charge))


def annotation_sets(ann):
    """The set form of a (vertex mask, edge mask, odd-charge mask) annotation."""
    vertices, edge_ids, charge = ann
    return make_annotation(bits(vertices), bits(edge_ids), {v: (charge >> v) & 1 for v in bits(vertices)})


def reference_sides(g: Graph, vertices: frozenset[int], rest: frozenset[int], a: int, b: int):
    """`bp._sides` on sets: the components of (vertices, rest + ab) minus
    ab, one when ab is no bridge, else the two sides."""
    seen = ({a}, {b})
    found: tuple[set[int], set[int]] = (set(), set())
    stacks = ([a], [b])
    while True:
        for i in (0, 1):
            if not stacks[i]:
                small = (frozenset(seen[i]), frozenset(found[i]))
                return [small, (vertices - small[0], rest - small[1])]
            u = stacks[i].pop()
            for e in g.incident[u]:
                if e in rest and e not in found[i]:
                    found[i].add(e)
                    w = g.other_end(e, u)
                    if w in seen[1 - i]:
                        return [(vertices, rest)]
                    if w not in seen[i]:
                        seen[i].add(w)
                        stacks[i].append(w)


def reference_expected_children(g: Graph, ann, var: int):
    """`bp.expected_children` on set-form annotations: the reference the
    mask version is compared with."""
    vertices, edge_ids, charge = ann
    if var not in edge_ids:
        raise ValueError(f"decision edge {var} not in the annotated subgraph")
    if sum(charge.values()) % 2 != 1:
        raise ValueError("no odd component after conditioning; parent annotation not unsatisfiable")
    a, b = g.edges[var]
    sides = reference_sides(g, vertices, edge_ids - {var}, a, b)
    out = []
    for literal in (0, 1):
        gamma = dict(charge)
        if literal == 1:
            gamma[a] ^= 1
            gamma[b] ^= 1
        verts, edges = sides[0] if sum(gamma[v] for v in sides[0][0]) % 2 else sides[-1]
        out.append(make_annotation(verts, edges, {v: gamma[v] for v in verts}))
    return out[0], out[1]


@dataclass
class CompileDetails:
    """The all-pairs construction before trimming: `vertex_gate[k][v]`
    computes T(G_k, c_k + 1_v) for every program node k and vertex v of G_k."""

    source: int
    num_vars: int
    all_gates: tuple
    vertex_gate: dict[int, dict[int, int]]
    added_gates: int
    added_gate_budget: int  # 3 * sum of |V(G_k)| over program nodes

    def circuit(self, root_vertex: int) -> NnfCircuit:
        """The part the gate for (source, root_vertex) reaches, which
        computes T(G, c + 1_root_vertex)."""
        return restrict_to_root(NnfCircuit(self.all_gates, self.vertex_gate[self.source][root_vertex], self.num_vars))


def compile_all_pairs(b: BranchingProgram, g: Graph, c: Charge) -> CompileDetails:
    """The paper's construction as written: children first, one gate per
    (node, vertex) pair whether or not any root reaches it.
    Every sink's gate is the constant 1.  `compiler.compile_bp_to_dnnf`
    builds only the pairs its root reaches, in the order its recursion
    meets them, folds the sinks' constants as it builds, and must equal
    `propagate_constants(circuit(root_vertex))` up to gate numbering
    (`same_circuit`)."""
    res = validate_well_structured(b, g, c)
    if not res:
        raise ValueError(f"program is not well-structured: {res.error} (node {res.node})")
    annotations = {k: annotation_sets(ann) for k, ann in res.annotations.items()}

    builder = CircuitBuilder(g.m)
    const1 = builder.const(1)
    vertex_gate: dict[int, dict[int, int]] = {}

    for k in b.topological():
        if k in b.sinks:
            vertex_gate[k] = {b.sinks[k]: const1}
            continue
        var, lo, hi = b.decisions[k]
        vertices, edge_ids, _ = annotations[k]
        a, bb = g.edges[var]
        lo_vs = annotations[lo][0]
        hi_vs = annotations[hi][0]
        gate_of: dict[int, int] = {}
        if lo_vs == hi_vs == vertices:
            # non-bridge: children live on G_k - e with the same vertex set
            for v in sorted(vertices):
                left = builder.gate_and(builder.literal(var, False), vertex_gate[lo][v])
                right = builder.gate_and(builder.literal(var, True), vertex_gate[hi][v])
                gate_of[v] = builder.gate_or(left, right)
        else:
            # bridge: one child per component; i is the child holding a's side
            if a in lo_vs:
                side_a, side_b = (lo, hi)
                lit_a_positive = False  # l_e = the 0-literal
            else:
                side_a, side_b = (hi, lo)
                lit_a_positive = True
            for v in sorted(vertices):
                if v in annotations[side_a][0]:
                    lit = builder.literal(var, lit_a_positive)
                    inner = builder.gate_and(vertex_gate[side_a][v], vertex_gate[side_b][bb])
                else:
                    lit = builder.literal(var, not lit_a_positive)
                    inner = builder.gate_and(vertex_gate[side_b][v], vertex_gate[side_a][a])
                gate_of[v] = builder.gate_and(lit, inner)
        vertex_gate[k] = gate_of

    internal = sum(1 for gate in builder.gates if gate.kind in (AND, OR))
    budget = 3 * sum(len(annotations[k][0]) for k in b.topological())
    return CompileDetails(b.source, g.m, tuple(builder.gates), vertex_gate, internal, budget)


def same_circuit(a: NnfCircuit, b: NnfCircuit) -> bool:
    """The two circuits are one circuit up to gate numbering: interned in
    one table, keyed on a gate's kind, variable, sign or constant and its
    children's keys, their roots get the same key, and they have equal
    size and node count."""
    table: dict[tuple, int] = {}

    def root_key(d: NnfCircuit) -> int:
        keys: list[int] = []
        for gate in d.gates:
            if gate.kind in (AND, OR):
                key = (gate.kind, keys[gate.a], keys[gate.b])
            else:
                key = (gate.kind, gate.var, gate.positive, gate.a)
            keys.append(table.setdefault(key, len(table)))
        return keys[d.root]

    return root_key(a) == root_key(b) and a.size == b.size and a.node_count == b.node_count


def demanded_vertices(details: CompileDetails, root_vertex: int) -> dict[int, list[int]]:
    """Per program node, the vertices whose all-pairs gate the root reaches."""
    root = details.vertex_gate[details.source][root_vertex]
    reach = set(_reachable(NnfCircuit(details.all_gates, root, details.num_vars)))
    return {k: [v for v, gate in per_vertex.items() if gate in reach] for k, per_vertex in details.vertex_gate.items()}


def build_bp_by_rule(g: Graph, c: Charge, choose) -> BranchingProgram:
    """Well-structured program deciding edge `choose(annotation)` at each
    node, one node per distinct annotation (small inputs: it recurses).
    `choose` reads the annotation in set form (`annotation_sets`)."""
    decisions: dict[int, tuple[int, int, int]] = {}
    sinks: dict[int, int] = {}
    memo: dict[tuple, int] = {}
    splits: dict = {}

    def visit(ann) -> int:
        if ann not in memo:
            nid = memo[ann] = len(memo)
            vertices, edge_ids, _ = ann
            if edge_ids:
                var = choose(annotation_sets(ann))
                lo, hi = (visit(child) for child in expected_children(g, ann, var, splits))
                decisions[nid] = (var, lo, hi)
            else:
                sinks[nid] = vertices.bit_length() - 1  # a lone vertex
        return memo[ann]

    source = visit(_root(g, c))
    return BranchingProgram(source, decisions, sinks)


def validate_read_once(b: BranchingProgram) -> bool:
    """No source-to-sink path queries the same variable twice."""
    above: dict[int, int] = {b.source: 0}
    for u in reversed(b.topological()):
        if u not in b.decisions:
            continue
        var, lo, hi = b.decisions[u]
        if (above[u] >> var) & 1:
            return False
        mask = above[u] | (1 << var)
        for child in (lo, hi):
            above[child] = above.get(child, 0) | mask
    return True


# --- circuits ----------------------------------------------------------------


def propagate_constants(d: NnfCircuit) -> NnfCircuit:
    """Fold every constant below a gate into its parent, share equal
    literal leaves and drop unreachable gates.

    Internal gates absorb constant children, so the result never grows.
    """
    builder = CircuitBuilder(d.num_vars)
    consts: dict[int, int] = {}  # old id -> 0/1 for gates that collapsed
    new_id: dict[int, int] = {}
    for i, g in enumerate(d.gates):
        if g.kind == CONST:
            consts[i] = g.a
            continue
        if g.kind == LIT:
            new_id[i] = builder.literal(g.var, g.positive)
            continue
        ca = consts.get(g.a)
        cb = consts.get(g.b)
        zero, one = (0, 1) if g.kind == AND else (1, 0)
        if ca == zero or cb == zero:
            consts[i] = zero
        elif ca == one and cb == one:
            consts[i] = one
        elif ca == one:
            new_id[i] = new_id[g.b]
        elif cb == one:
            new_id[i] = new_id[g.a]
        else:
            op = builder.gate_and if g.kind == AND else builder.gate_or
            new_id[i] = op(new_id[g.a], new_id[g.b])
    root = builder.const(consts[d.root]) if d.root in consts else new_id[d.root]
    return restrict_to_root(builder.build(root))


def reference_smooth(d: NnfCircuit) -> NnfCircuit:
    """An equivalent smooth circuit, for the circuits the package's
    `nnf.smooth` refuses: fold the constants first (`propagate_constants`),
    then pad each deficient OR branch of the folded circuit with
    (x OR not-x) units, one shared unit per variable, chained by ANDs in
    ascending variable order."""
    if not validate_decomposable(d):
        raise ValueError("circuit must be decomposable")
    d = propagate_constants(d)
    if is_smooth(d):
        return d
    builder = CircuitBuilder(d.num_vars)
    units: dict[int, int] = {}

    def unit(var: int) -> int:
        if var not in units:
            units[var] = builder.gate_or(builder.literal(var, True), builder.literal(var, False))
        return units[var]

    def pad(gid: int, missing: int) -> int:
        for v in range(d.num_vars):
            if (missing >> v) & 1:
                gid = builder.gate_and(gid, unit(v))
        return gid

    masks = d.var_masks
    new_id: dict[int, int] = {}
    for i, g in enumerate(d.gates):
        if g.kind == LIT:
            new_id[i] = builder.literal(g.var, g.positive)
        elif g.kind == CONST:
            raise AssertionError("constant below a gate after propagation")
        elif g.kind == AND:
            new_id[i] = builder.gate_and(new_id[g.a], new_id[g.b])
        else:
            want = masks[i]
            new_id[i] = builder.gate_or(pad(new_id[g.a], want & ~masks[g.a]), pad(new_id[g.b], want & ~masks[g.b]))
    return restrict_to_root(builder.build(new_id[d.root]))


def condition_dnnf(d: NnfCircuit, var: int, value: int) -> NnfCircuit:
    """Fix a variable; its literals become constants, which then propagate."""

    def leaf(g: Gate) -> Gate:
        if g.kind == LIT and g.var == var:
            return Gate(CONST, a=int(bool(value) == g.positive))
        return g

    return propagate_constants(NnfCircuit(tuple(map(leaf, d.gates)), d.root, d.num_vars))


def forget_var(d: NnfCircuit, var: int) -> NnfCircuit:
    """Existential projection: both literals of the variable become true.

    Correct on decomposable circuits, where projection distributes over
    every gate; the circuit never grows.
    """

    def leaf(g: Gate) -> Gate:
        if g.kind == LIT and g.var == var:
            return Gate(CONST, a=1)
        return g

    return propagate_constants(NnfCircuit(tuple(map(leaf, d.gates)), d.root, d.num_vars))


def replay_on_circuit(result: MinorResult, d: NnfCircuit) -> NnfCircuit:
    """Replay the minor trace on a circuit computing the all-zero-charge
    formula of the original graph.

    Edge deletion conditions the variable to 0 and subdivision elimination
    forgets the dropped variable; neither grows the circuit, so the result
    computes the minor's all-zero formula (over `var_of_edge` names) in at
    most the original size.
    """
    for op in result.trace:
        if op.kind == "delete_edge":
            d = condition_dnnf(d, op.var, 0)
        elif op.kind == "forget_edge":
            d = forget_var(d, op.var)
    return d


@dataclass(frozen=True)
class ProofTree:
    """Tree sub-circuit: both children at AND gates, one child at each OR.

    `nodes` is the set of gate ids on the tree; on a smooth circuit the
    literal leaves determine one total model over var(root).
    """

    nodes: frozenset[int]
    ones: int  # variables assigned 1
    assigned: int  # variables assigned at all

    def model(self) -> int:
        return self.ones


def enumerate_proof_trees(d: NnfCircuit) -> list[ProofTree]:
    """All proof trees whose literal choices are consistent.

    On a complete DNNF every tree assigns each variable exactly once and
    encodes a single model.  Exponential in general; intended for desk
    scale.  Gates are visited in id order, children before parents.
    """
    memo: dict[int, list[tuple[frozenset, int, int]]] = {}
    for i in _reachable(d):
        g = d.gates[i]
        if g.kind == LIT:
            out = [(frozenset((i,)), (1 << g.var) if g.positive else 0, 1 << g.var)]
        elif g.kind == CONST:
            out = [(frozenset((i,)), 0, 0)] if g.a else []
        elif g.kind == AND:
            out = []
            for na, oa, sa in memo[g.a]:
                for nb, ob, sb in memo[g.b]:
                    if sa & sb:
                        continue  # non-decomposable overlap; skip inconsistent pair
                    out.append((na | nb | {i}, oa | ob, sa | sb))
        else:
            out = [(n | {i}, o, s) for n, o, s in memo[g.a]]
            out += [(n | {i}, o, s) for n, o, s in memo[g.b]]
        memo[i] = out

    trees = [ProofTree(n, o, s) for n, o, s in memo[d.root]]
    trees.sort(key=lambda t: (t.ones, sorted(t.nodes)))
    return trees


def proof_tree_models(d: NnfCircuit) -> set[int]:
    """Union of single models encoded by the proof trees (complete DNNF)."""
    out = set()
    for t in enumerate_proof_trees(d):
        if t.assigned != d.var_masks[d.root]:
            raise ValueError("proof tree does not cover var(root); circuit not smooth?")
        out.add(t.model())
    return out


def proof_tree_vtree(d: NnfCircuit, mask: int) -> tuple[BranchDecomposition, dict[int, int]]:
    """Variable tree of the proof tree accepting a model, with a node ->
    gate map.

    The walk takes the true child at every OR gate (the smaller id on
    ties), so each node's gate is an AND gate or a literal; the leaves are
    the literals' variables.  On a smooth circuit `edges_below(vtree)[i]` is then
    the variable set of gate `gate_of[i]`.
    """
    vals = gate_values(d, point(mask))
    nodes: list[tuple | None] = []
    gate_of: dict[int, int] = {}

    def walk(i: int):
        while d.gates[i].kind == OR:
            g = d.gates[i]
            if vals[g.a]:
                i = g.a
            elif vals[g.b]:
                i = g.b
            else:
                raise ValueError("model does not satisfy the circuit")
        g = d.gates[i]
        if g.kind == CONST:
            raise ValueError("constants must be propagated before playing the game")
        my = len(nodes)
        nodes.append(None)
        gate_of[my] = i
        if g.kind == LIT:
            nodes[my] = ("leaf", g.var)
        else:
            left = yield (g.a,)
            right = yield (g.b,)
            nodes[my] = ("node", left, right)
        return my

    run(walk, d.root)
    return BranchDecomposition(tuple(nodes)), gate_of


# --- rectangles --------------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """Product set of assignments over an edge bipartition.  A and B hold
    partial assignment masks whose bits stay inside their own block; the
    represented set is {a | b}."""

    e1_mask: int
    e2_mask: int
    a_side: frozenset[int]
    b_side: frozenset[int]
    num_vars: int

    def __post_init__(self):
        if self.e1_mask & self.e2_mask:
            raise ValueError("blocks must be disjoint")
        if self.e1_mask | self.e2_mask != (1 << self.num_vars) - 1:
            raise ValueError("blocks must cover all variables")
        if any(a & ~self.e1_mask for a in self.a_side):
            raise ValueError("A-side assignment leaves its block")
        if any(b & ~self.e2_mask for b in self.b_side):
            raise ValueError("B-side assignment leaves its block")

    @property
    def size(self) -> int:
        return len(self.a_side) * len(self.b_side)

    def models(self) -> set[int]:
        return {a | b for a in self.a_side for b in self.b_side}

    def is_balanced(self) -> bool:
        n1 = bin(self.e1_mask).count("1")
        n2 = bin(self.e2_mask).count("1")
        total = self.num_vars
        return 3 * n1 >= total and 3 * n2 >= total and 3 * n1 <= 2 * total and 3 * n2 <= 2 * total


def mask_of(edge_ids) -> int:
    m = 0
    for e in edge_ids:
        m |= 1 << e
    return m


def is_rectangle(assignments, e1_mask: int, e2_mask: int, num_vars: int) -> Rectangle | None:
    """The A x B decomposition of the set, or None when it is not a
    product for this partition."""
    s = set(assignments)
    a_side = frozenset(x & e1_mask for x in s)
    b_side = frozenset(x & e2_mask for x in s)
    if len(a_side) * len(b_side) != len(s):
        return None
    rect = Rectangle(e1_mask, e2_mask, a_side, b_side, num_vars)
    return rect if rect.models() == s else None


def gate_rectangle(d: NnfCircuit, gate: int, trees: list[ProofTree] | None = None) -> Rectangle:
    """Models accepted through a gate, as a rectangle over (var(gate), rest).

    On a complete DNNF the models whose proof trees pass through the gate
    form a product set A x B with A over var(gate); this enumerates the
    proof trees, projects, and verifies the product property.
    """
    if d.num_vars > RECT_CAP:
        raise ValueError(f"{d.num_vars} variables exceed the rectangle cap")
    if not validate_decomposable(d) or not is_smooth(d):
        raise ValueError("gate rectangles need a smooth decomposable circuit")
    if trees is None:
        trees = enumerate_proof_trees(d)
    e1 = d.var_masks[gate]
    e2 = ((1 << d.num_vars) - 1) & ~e1
    rect = is_rectangle({t.model() for t in trees if gate in t.nodes}, e1, e2, d.num_vars)
    if rect is None:
        raise AssertionError(f"gate {gate}: accepted set is not a product; circuit is broken")
    return rect


def induced_subconstraint(r: Rectangle, t: TseitinFormula, v: int) -> SubConstraint:
    """Sub-constraint on E1(v) that every model of the rectangle satisfies.

    The A-side parity at a boundary vertex is constant across the
    rectangle whenever the rectangle respects the formula; a non-constant
    parity therefore signals an internal error, not bad input.
    """
    if not r.a_side or not r.b_side:
        raise ValueError("empty rectangle induces no sub-constraint")
    e1_at_v = [e for e in t.graph.incident[v] if (r.e1_mask >> e) & 1]
    e2_at_v = [e for e in t.graph.incident[v] if (r.e2_mask >> e) & 1]
    if not e1_at_v or not e2_at_v:
        raise ValueError(f"vertex {v} is not incident to both sides of the partition")
    for mask in r.models():
        if not satisfies(t, mask):
            raise ValueError("rectangle is not contained in the model set")
    sub_mask = mask_of(e1_at_v)
    parities = {bin(a & sub_mask).count("1") & 1 for a in r.a_side}
    if len(parities) != 1:
        raise AssertionError(f"vertex {v}: A-side parity not constant over the rectangle")
    return SubConstraint(v, tuple(e1_at_v), parities.pop())


def rectangle_cap_check(t: TseitinFormula, adam: AdamResponse, r: Rectangle) -> bool:
    """|R| <= 2^cap, via the sub-constraint + split-count composition."""
    if r.e1_mask != mask_of(adam.e1):  # a rectangle's blocks partition the edges, so E2 follows
        raise ValueError("rectangle partition differs from the adversary's cut")
    subs = [induced_subconstraint(r, t, v) for v in adam.v_star]
    count = conjoin_subconstraints_count(t, subs)
    if count != 1 << adam.cap_exponent:
        raise AssertionError("split count disagrees with the cap exponent")
    for mask in r.models():
        if not all(s.holds(mask) for s in subs):
            raise AssertionError("rectangle escapes its induced sub-constraints")
    return r.size <= count


# --- the cover game ----------------------------------------------------------


@dataclass
class GameRound:
    model: int
    gate: int
    e1_size: int
    rectangle_size: int
    cap_exponent: int | None
    covered_new: int


@dataclass
class GameTranscript:
    rounds: list[GameRound] = field(default_factory=list)
    total_models: int = 0
    max_rectangle: int = 0

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def round_lower_bound(self) -> int:
        if not self.max_rectangle:
            return 0
        return -(-self.total_models // self.max_rectangle)

    @property
    def cap_round_lower_bound(self) -> int:
        """total models / largest per-round cap; 0 without cap data."""
        caps = [r.cap_exponent for r in self.rounds if r.cap_exponent is not None]
        if not caps:
            return 0
        return -(-self.total_models // (1 << max(caps)))


def game_simulate(d: NnfCircuit, t: TseitinFormula) -> GameTranscript:
    """Play the cover game with the circuit's own rectangles.

    The cover player always picks the smallest uncovered model and its
    accepting proof tree; the adversary plays the max-order cut of the
    induced variable tree (with the full safe-split cap when the graph is
    3-connected, vacuous cap otherwise).  Every rectangle is checked
    against its cap; rounds never exceed the node count and a gate never
    repeats.
    """
    if not validate_decomposable(d) or not is_smooth(d):
        raise ValueError("the game needs a smooth decomposable circuit")
    sat_masks = models(tseitin_truth_table(t))
    circuit_sat = set(sat_masks)
    trees = enumerate_proof_trees(d)
    three_conn = is_3_connected(t.graph)
    uncovered = set(sat_masks)
    transcript = GameTranscript(total_models=len(sat_masks))
    used_gates: set[int] = set()
    while uncovered:
        a = min(uncovered)
        vtree, gate_of = proof_tree_vtree(d, a)
        cut = max_order_cut(vtree, t.graph)
        adam = adam_response(t.graph, cut.e1) if three_conn else None
        cap = adam.cap_exponent if adam else None
        gate = gate_of[cut.node_id]
        if gate in used_gates:
            raise AssertionError("a gate repeated across rounds")
        used_gates.add(gate)
        rect = gate_rectangle(d, gate, trees)
        rect_models = rect.models()
        if not rect_models <= circuit_sat:
            raise AssertionError("rectangle leaves the model set")
        if a not in rect_models:
            raise AssertionError("rectangle misses the chosen model")
        if adam is not None and not rectangle_cap_check(t, adam, rect):
            raise AssertionError("rectangle exceeds the adversary's cap")
        newly = len(uncovered & rect_models)
        uncovered -= rect_models
        transcript.rounds.append(GameRound(a, gate, bin(rect.e1_mask).count("1"), rect.size, cap, newly))
        transcript.max_rectangle = max(transcript.max_rectangle, rect.size)
        if transcript.round_count > d.node_count:
            raise AssertionError("more rounds than circuit nodes")
    return transcript


def extract_balanced_cover(d: NnfCircuit) -> list[Rectangle]:
    """Balanced rectangle cover of the circuit's models, at most one
    rectangle per gate, found by descending each proof tree from the root
    into the child with more variables (the left one on ties) until the
    variable set is balanced."""
    if d.num_vars < 3:
        raise ValueError("balanced covers need at least 3 variables")
    if not validate_decomposable(d) or not is_smooth(d):
        raise ValueError("balanced covers need a smooth decomposable circuit")
    trees = enumerate_proof_trees(d)
    sat = {t.model() for t in trees}
    total = d.num_vars
    cover: list[Rectangle] = []
    uncovered = set(sat)
    covered_union: set[int] = set()
    while uncovered:
        a = min(uncovered)
        vtree, gate_of = proof_tree_vtree(d, a)
        size = [len(below) for below in edges_below(vtree)]
        i = vtree.root
        while 3 * size[i] > 2 * total:
            node = vtree.nodes[i]
            if node[0] == "leaf":
                raise ValueError("no balanced gate on the proof tree")
            i = node[2] if size[node[2]] > size[node[1]] else node[1]
        if 3 * size[i] < total:
            raise ValueError("no balanced gate on the proof tree")
        rect = gate_rectangle(d, gate_of[i], trees)
        if not rect.is_balanced():
            raise AssertionError("descent stopped at an unbalanced gate")
        ms = rect.models()
        if a not in ms or not ms <= sat:
            raise AssertionError("cover rectangle is wrong")
        uncovered -= ms
        covered_union |= ms
        cover.append(rect)
        if len(cover) > d.node_count:
            raise AssertionError("cover larger than the circuit")
    if covered_union != sat:
        raise AssertionError("cover union differs from the model set")
    return cover


# --- resolution on literal sets ---------------------------------------------


def trace_of(rows) -> ResolutionTrace:
    """The trace of (id, literals, antecedents) rows, over the sorted
    variables the rows mention, as the parser tables them."""
    variables = tuple(sorted({abs(lit) for _, literals, _ in rows for lit in literals}))
    index = {v: i for i, v in enumerate(variables)}
    steps = []
    for sid, literals, antecedents in rows:
        pos = sum(1 << index[lit] for lit in set(literals) if lit > 0)
        neg = sum(1 << index[-lit] for lit in set(literals) if lit < 0)
        steps.append(Step(sid, pos, neg, tuple(antecedents) if antecedents is not None else None))
    return ResolutionTrace(tuple(steps), variables)


def full_scan_branch_variable(open_groups) -> int:
    """DPLL's branch variable read off every open group of a state,
    (width, unassigned mask, alive clause count) each: the most frequent
    variable among the shortest clauses, ties by id.  The library reads
    only the groups of the lowest nonzero width mask."""
    width = min(open_groups)[0]
    counts: dict[int, int] = {}
    for w, mask, count in open_groups:
        if w == width:
            while mask:
                low = mask & -mask
                mask ^= low
                counts[low] = counts.get(low, 0) + count
    top = max(counts.values())
    return min(b for b, count in counts.items() if count == top).bit_length() - 1


def clause(trace: ResolutionTrace, step: Step) -> frozenset[int]:
    return frozenset(trace.literals(step))


def resolve(a: frozenset[int], b: frozenset[int], pivot: int) -> frozenset[int]:
    """Resolvent of a (containing pivot) and b (containing -pivot)."""
    if pivot <= 0:
        raise ValueError("pivot must be a positive variable id")
    if pivot not in a or -pivot in a:
        raise ValueError(f"first antecedent must contain {pivot} and not {-pivot}")
    if -pivot not in b or pivot in b:
        raise ValueError(f"second antecedent must contain {-pivot} and not {pivot}")
    return (a - {pivot}) | (b - {-pivot})


def set_pivot(a: frozenset[int], b: frozenset[int], clause: frozenset[int]) -> int | None:
    """The variable on which a and b, in either order, resolve to
    `clause`, or None.

    Where `resolve(first, second, p)` is defined, first holds p and not
    -p and second holds -p and not p, so the resolvent is exactly
    (a | b) - {p, -p}.  Hence `clause` is a resolvent only if it lies
    inside a | b and leaves out exactly one complementary pair {p, -p};
    then p is the only candidate, and it resolves when one antecedent
    holds p, the other -p, and neither holds both.  No second variable
    can qualify, as its pair would have to be all that is left out as
    well, so the one candidate is also the smallest: no sort, no retry.
    """
    union = a | b
    if len(union) - len(clause) != 2 or not clause <= union:
        return None
    lit, other = union - clause
    if lit != -other:
        return None
    p = abs(lit)
    first, second = (a, b) if p in a else (b, a)
    return p if -p in second and -p not in first and p not in second else None


# --- the line readers the text formats had before they split each line once --
#
# Each reader built a `Line` (number, stripped text, fields) for every line
# through `records`.  The library's readers must accept and reject exactly
# what these do, with the same objects and the same messages.


class Line(NamedTuple):
    number: int  # 1-based, counting every line of the input
    text: str  # stripped
    fields: list[str]

    def error(self, message: str) -> ValueError:
        return ValueError(f"line {self.number}: {message}")

    def once(self, first: dict, key, what: str) -> None:
        """`textformat.once` on this line: `first` maps each key seen to
        the line that held it."""
        if key in first:
            raise self.error(f"{what}, first on line {first[key].number}")
        first[key] = self

    def ints(self, count: int | None = None, start: int = 1) -> list[int]:
        """The fields from `start` on as integers; exactly `count` of them
        unless count is None."""
        values = self.fields[start:]
        if count is not None and len(values) != count:
            raise self.error(f"expected {count} numbers in {self.text!r}")
        try:
            return list(map(int, values))
        except ValueError:
            raise self.error(f"not a list of integers: {self.text!r}") from None


def records(text: str, comments: tuple[str, ...] = ("#",)):
    """Each non-blank line that starts with none of `comments`."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith(comments):
            yield Line(number, line, line.split())


def reference_edge_from_line(ln: Line, u: int, v: int, n: int, seen: dict) -> tuple[int, int]:
    """The 0-based edge of the `e u v` line `ln` in a graph on vertices
    1..n.  `seen` maps each edge accepted so far to its line number; an
    endpoint out of range, a loop or a parallel edge raises a ValueError
    naming the line, in the file's 1-based ids."""
    if not (1 <= u <= n and 1 <= v <= n):
        raise ln.error(f"endpoint outside 1..{n}")
    if u == v:
        raise ln.error(f"loop at vertex {u}")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ln.error(f"parallel edge {key}, first on line {seen[key]}")
    seen[key] = ln.number
    return u - 1, v - 1


def reference_graph_from_text(text: str) -> Graph:
    n = None
    m = None
    first: dict = {}
    edges = []
    seen: dict = {}
    for ln in records(text):
        if ln.fields[0] == "p":
            ln.once(first, "p", "second header")
            if len(ln.fields) != 4 or ln.fields[1] != "graph":
                raise ln.error(f"bad header: {ln.text}")
            n, m = ln.ints(2, start=2)
        elif ln.fields[0] == "e":
            if n is None:
                raise ln.error("edge line before header")
            edges.append(reference_edge_from_line(ln, *ln.ints(2), n, seen))
        else:
            raise ln.error(f"unrecognized line: {ln.text}")
    if n is None:
        raise ValueError("missing header")
    if m != len(edges):
        raise ValueError(f"header announces {m} edges, found {len(edges)}")
    return Graph(n, tuple(edges))


def reference_tseitin_from_text(text: str) -> TseitinFormula:
    n = m = None
    charge = None
    first: dict = {}
    edges = []
    for ln in records(text):
        if ln.fields[0] == "p":
            ln.once(first, "p", "second header")
            if len(ln.fields) != 4 or ln.fields[1] != "tseitin":
                raise ln.error(f"bad header: {ln.text}")
            n, m = ln.ints(2, start=2)
        elif ln.fields[0] == "g":
            ln.once(first, "g", "second charge line")
            charge = tuple(ln.ints())
            if not set(charge) <= {0, 1}:
                raise ln.error("charge bits must be 0/1")
        elif ln.fields[0] == "e":
            edges.append((ln, *ln.ints(2)))
        else:
            raise ln.error(f"unrecognized line: {ln.text}")
    if n is None or charge is None:
        raise ValueError("missing header" if n is None else "missing charge line")
    if len(charge) != n:
        raise ValueError(f"header announces {n} vertices, charge line has {len(charge)} bits")
    if len(edges) != m:
        raise ValueError(f"header announces {m} edges, found {len(edges)}")
    seen: dict = {}
    return TseitinFormula(Graph(n, tuple(reference_edge_from_line(*edge, n, seen) for edge in edges)), charge)


def reference_cnf_from_dimacs(text: str) -> Cnf:
    """A clause `Cnf` rejects is looked up again to name its line."""
    num_vars = None
    announced = None
    first: dict = {}
    clauses = []
    lines = []
    for ln in records(text, comments=("c", "#")):
        if ln.fields[0] == "p":
            ln.once(first, "p", "second header")
            if len(ln.fields) != 4 or ln.fields[1] != "cnf":
                raise ln.error(f"bad header: {ln.text}")
            num_vars, announced = ln.ints(2, start=2)
        else:
            lits = ln.ints(start=0)
            if lits[-1] != 0 or 0 in lits[:-1]:
                raise ln.error(f"clause not zero-terminated: {ln.text}")
            clauses.append(frozenset(lits[:-1]))
            lines.append(ln)
    if num_vars is None:
        raise ValueError("missing header")
    if announced != len(clauses):
        raise ValueError(f"header announces {announced} clauses, found {len(clauses)}")
    try:
        return Cnf(num_vars, tuple(clauses))
    except ValueError:
        for ln, cl in zip(lines, clauses):
            problem = _clause_problem(cl, num_vars)
            if problem:
                raise ln.error(problem) from None
        raise


def reference_bp_from_text(text: str) -> BranchingProgram:
    source = None
    decisions = {}
    sinks = {}
    first: dict[int | None, Line] = {}  # node or sink id, None for the source -> its line
    for ln in records(text):
        if ln.fields[0] == "source":
            (source,) = ln.ints(1)
            ln.once(first, None, "second source line")
            continue
        elif ln.fields[0] == "node":
            key, var, lo, hi = ln.ints(4)
            decisions[key] = (var, lo, hi)
        elif ln.fields[0] == "sink":
            key, v = ln.ints(2)
            sinks[key] = v
        else:
            raise ln.error(f"unrecognized line: {ln.text}")
        if key in first:
            raise ln.error(f"repeated id {key}, first on line {first[key].number}")
        first[key] = ln
    if source is None:
        raise ValueError("missing source line")
    return BranchingProgram(source, decisions, sinks)


def reference_nnf_from_text(text: str) -> NnfCircuit:
    lines = list(records(text, comments=("c ",)))
    if not lines:
        raise ValueError("empty file")
    header = lines[0].fields
    if header[0] != "nnf" or len(header) != 4:
        raise lines[0].error(f"bad header: {lines[0].text}")
    nodes, _, num_vars = lines[0].ints(3)
    body = lines[1:]
    if len(body) != nodes:
        raise ValueError(f"header announces {nodes} nodes, found {len(body)}")
    gates: list[Gate] = []
    fid: list[int] = []  # file node id -> gate index (after binarization)

    def children(ln, start: int) -> list[int]:
        values = ln.ints(start=start)
        if not values:
            raise ln.error(f"no child count in {ln.text!r}")
        count, *ids = values
        if count != len(ids):
            raise ln.error(f"announces {count} children, lists {len(ids)}")
        if any(not 0 <= i < len(fid) for i in ids):
            raise ln.error("child id does not name an earlier node")
        return [fid[i] for i in ids]

    def binarize(kind: str, ids: list[int]) -> int:
        cur = ids[0]
        for nxt in ids[1:]:
            gates.append(Gate(kind, cur, nxt))
            cur = len(gates) - 1
        return cur

    for ln in body:
        if ln.fields[0] == "L":
            (sv,) = ln.ints(1)
            if not 1 <= abs(sv) <= num_vars:
                raise ln.error(f"literal {sv} outside 1..{num_vars}")
            gates.append(Gate(LIT, -1, -1, abs(sv) - 1, sv > 0))
            fid.append(len(gates) - 1)
        elif ln.fields[0] in ("A", "O"):
            kind = AND if ln.fields[0] == "A" else OR
            ids = children(ln, 1 if kind == AND else 2)
            if not ids:
                gates.append(Gate(CONST, int(kind == AND)))
                fid.append(len(gates) - 1)
            else:
                fid.append(binarize(kind, ids))
        else:
            raise ln.error(f"unrecognized node line: {ln.text}")
    if not fid:
        raise ValueError("circuit has no nodes")
    return NnfCircuit(tuple(gates), fid[-1], num_vars)


def reference_trace_from_text(text: str) -> ResolutionTrace:
    """Lines are read first, and the table is the sorted set of variables
    they mention; each clause then becomes its two masks over it."""
    rows = []
    mentioned: set[int] = set()
    ints: dict[str, int] = {}  # literals and antecedent ids recur: each token is converted once
    for ln in records(text):
        fields = ln.fields
        try:
            ints[fields[0]] = int(fields[0])
            nums = list(map(ints.__getitem__, fields))
        except (KeyError, ValueError):
            nums = ln.ints(start=0)
            ints.update(zip(fields, nums))
        sid = nums[0]
        try:
            end = nums.index(0, 1)
        except ValueError:
            raise ln.error(f"step {sid}: clause not zero-terminated") from None
        rest = len(nums) - end
        if rest == 1 or nums[-1] != 0:
            raise ln.error(f"step {sid}: missing terminator")
        if rest not in (2, 4):
            raise ln.error(f"step {sid}: expected 0 or 2 antecedents, got {rest - 2}")
        literals = nums[1:end]
        mentioned.update(literals)
        rows.append((sid, literals, (nums[end + 1], nums[end + 2]) if rest == 4 else None))
    variables = tuple(sorted({abs(lit) for lit in mentioned}))
    bits = _literal_bits(variables)
    width = len(variables)
    low = (1 << width) - 1
    steps = []
    for sid, literals, antecedents in rows:
        joint = 0
        for lit in literals:
            joint |= bits[lit]
        steps.append(Step(sid, joint & low, joint >> width, antecedents))
    return ResolutionTrace(tuple(steps), variables)


def reference_certificate_from_text(text: str) -> LowerBoundCertificate:
    fields: dict[str, Line] = {}
    for ln in records(text):
        name, _, value = ln.text.partition(":")
        name = name.strip()
        if name not in _CERT_FIELDS:
            raise ln.error(f"unknown field {name!r}")
        ln.once(fields, name, f"repeated field {name}")
        fields[name] = Line(ln.number, value.strip(), value.split())
    missing = [f for f in _CERT_FIELDS if f not in fields]
    if missing:
        raise ValueError(f"certificate missing fields: {missing}")

    def ints(name):
        return tuple(fields[name].ints(start=0))

    def one(name):
        return fields[name].ints(1, start=0)[0]

    edges = []
    for pair in fields["minor_edges"].fields:
        ends = Line(fields["minor_edges"].number, pair, pair.split("-"))
        edges.append(tuple(ends.ints(2, start=0)))
    return LowerBoundCertificate(
        graph_hash=fields["graph_hash"].text, minor_n=one("minor_n"), minor_edges=tuple(edges),
        v_prime=ints("v_prime"), v_second=ints("v_second"), v_star=ints("v_star"),
        k=one("k"),
    )


def reference_trace_to_text(trace: ResolutionTrace) -> str:
    lines = []
    for step in trace.steps:
        fields = [step.id, *trace.literals(step), 0, *(step.antecedents or ()), 0]
        lines.append(" ".join(map(str, fields)))
    return "\n".join(lines) + "\n"
