"""Safe separators and 3-connected topological minors.

The reduction keeps, for each small separator, the component side of
largest treewidth estimate (`width.treewidth_estimate`), which preserves
treewidth where the estimate is exact, realizing the lost structure as
topological-minor operations (edge deletions and eliminations of degree-2
subdivision vertices).  Every surviving edge keeps the id of an original
edge as its variable, and every surviving vertex its original name; a
vertex left without edges simply leaves `vertex_names`.  The operation
trace is kept so that circuit-level consumers can replay the reduction:
deleting an edge is conditioning its variable to 0, and eliminating a
subdivision vertex is forgetting one of its two edge variables while the
surviving edge keeps the other variable (the test suite replays it on
compiled circuits, `tests/lemmas.py`).

Two facts keep the reduction's searches to about one scan in all:

* Every separator of size at most 2 of a reduced graph already separates
  the graph before the reduction.  A path between two kept vertices that
  runs through a dropped component leaves it where it entered, at u or
  v, and can be cut short there, or crosses from u to v, and the edge uv
  the reduction keeps replaces it.  Renaming keeps the vertex order,
  since the names are sorted.  So after a reduction at the pair (u, w)
  there is still no cut vertex and no separating pair below u, and the
  next search starts at u's new id; after a cut-vertex reduction it runs
  the cut-vertex pass and scans the pairs from 0.  Each search's result
  is written into the reduced graph's `separator` memo, where
  `find_safe_separator`, the adversary and the safe split read it.
* The largest component C0 of a separator S is kept, without an exact
  treewidth run on its side, when the minor-min-degree bound of its
  completed side already beats every other side's value, ties going to
  the smallest vertex id: that bound never exceeds the side's estimate,
  the value it would be ranked by, and beyond the exact cap it is that
  value, so the bound runs once there (`width.estimate_at_least`).
  Safe separators and the sides they keep are those of Bodlaender and
  Koster, "Safe separators for treewidth" (Discrete Math. 2006).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, _first_separator, connected_components, is_connected, search, tree_path
from .width import estimate_at_least, treewidth_estimate


@dataclass(frozen=True)
class MinorOp:
    """One topological-minor step, in terms of original variable ids.

    kind 'delete_edge': condition variable `var` to 0.
    kind 'forget_edge': subdivision elimination; forget variable `var`,
    the merged edge keeps variable `kept_var`.
    """

    kind: str
    var: int = -1
    vertex: int = -1
    kept_var: int = -1


@dataclass
class MinorResult:
    """A topological minor of some original graph: edge e of `graph` is
    the original edge `var_of_edge[e]` (ascending), vertex i is the
    original vertex `vertex_names[i]` (ascending), and `trace` turns the
    original into it."""

    graph: Graph
    var_of_edge: tuple[int, ...]
    vertex_names: tuple[int, ...]
    trace: list[MinorOp] = field(default_factory=list)


def _completed_side(g: Graph, vertices: set[int], clique: tuple[int, ...]) -> Graph:
    """The subgraph on a component and its separator, with the separator
    made a clique: vertices numbered in order, the induced edges in the
    order of their old ids, then the missing separator edges."""
    vmap = {v: i for i, v in enumerate(sorted(vertices | set(clique)))}
    edges = [(vmap[u], vmap[w]) for u, w in g.edges if u in vmap and w in vmap]
    edges += [(vmap[u], vmap[w]) for i, u in enumerate(clique) for w in clique[i + 1:] if not g.adj_mask[u] >> w & 1]
    return Graph(len(vmap), tuple(edges))


def find_safe_separator(g: Graph):
    """Smallest safe separator (size 1, else size 2) with its chosen side.

    Returns (separator, chosen component, other components) or None when
    no separator of size at most 2 leaves a vertex.  The components are
    those of g minus the separator; the others are in order of their
    smallest vertex.  The chosen component maximizes `treewidth_estimate`
    of the separator-completed side (exact at desk scale, the
    minor-min-degree bound beyond), the value the certificate's chain
    reads; ties go to the component containing the smallest vertex id.
    The separator is `g.separator`, which g memoises, so
    `is_3_connected` on the same graph object searches no further.

    Every side but the largest, C0 (the least smallest vertex among equal
    sizes), is ranked as said.  C0 is chosen when its completed side's
    value wins (`estimate_at_least`): the minor-min-degree bound, which
    never exceeds that value, stops as soon as it wins, and past the exact
    cap, where it is the value, it settles the side; only up to the cap
    does the exact run follow.
    """
    if not is_connected(g):
        raise ValueError("graph must be connected")
    sep = g.separator
    if sep is None:
        return None
    comps = connected_components(g, sep)
    largest = max(comps, key=lambda comp: (len(comp), -min(comp)))
    value, least, best = max((treewidth_estimate(_completed_side(g, comp, sep))[0], -min(comp), comp)
                             for comp in comps if comp is not largest)
    enough = value + (min(largest) > -least)  # the least value of C0's that wins
    if estimate_at_least(_completed_side(g, largest, sep), enough):
        best = largest
    return sep, best, [comp for comp in comps if comp is not best]


def three_connected_minor(g: Graph) -> MinorResult:
    """3-connected topological minor, with the same treewidth when every
    side the reduction compares is within the exact-treewidth cap, where
    `treewidth_estimate` is exact.

    Iterates safe-separator reductions until no separator of size at most
    2 is left: a cut vertex keeps the side of largest rank; a 2-separator
    {u, v} keeps that side plus the edge uv, realized through one other
    component as a path contracted down to a single edge.  A completed
    side is ranked by `treewidth_estimate`, the value the certificate's
    chain reads, so past the exact cap the kept side need not carry the
    treewidth, only the largest estimate.  On a graph of treewidth below
    3 the reduction ends below 4 vertices (a 3-connected graph has
    treewidth at least 3), and that small minor, which is not
    3-connected, is returned.

    Each reduced graph's separator search resumes where the last one
    stopped (the module docstring says why): at the pair's first vertex,
    without the cut-vertex pass, after a pair; from the start after a cut
    vertex.  The last search, which finds nothing, is the minor's
    `separator` memo, so its 3-connectivity is not searched again.
    """
    if not is_connected(g):
        raise ValueError("graph must be connected")
    ends = dict(enumerate(g.edges))  # surviving original edge id -> ends, original names
    result = MinorResult(g, tuple(range(g.m)), tuple(range(g.n)))
    while (found := find_safe_separator(result.graph)) is not None:
        sep, _, dropped = found
        h = result.graph
        if len(sep) == 2 and not h.adj_mask[sep[0]] >> sep[1] & 1:
            # realize uv through the dropped component with the smallest vertex
            via, dropped = dropped[0], dropped[1:]
            path = _path_between(h, sep[0], sep[1], via)
            _delete(result, ends, [via], keep=path)
            _contract(result, ends, path, sep)
        _delete(result, ends, dropped)
        names = sorted({x for e in ends.values() for x in e})
        local = {x: i for i, x in enumerate(names)}
        reduced = Graph(len(names), tuple((local[a], local[b]) for a, b in ends.values()))
        if len(sep) == 2:
            vars(reduced)["separator"] = _first_separator(reduced, local[result.vertex_names[sep[0]]], False)
        result = MinorResult(reduced, tuple(ends), tuple(names), result.trace)
    return result


def _delete(result: MinorResult, ends: dict[int, tuple[int, int]], comps: list[set[int]], keep: list[int] = ()) -> None:
    """Delete the edges at each component's vertices except `keep`, one
    component after the other and ascending within one.  The vertices left
    without edges leave the minor's `vertex_names`; each separator vertex
    keeps its edges into the kept side."""
    h = result.graph
    for comp in comps:
        for e in sorted({e for x in comp for e in h.incident[x]} - set(keep)):
            result.trace.append(MinorOp("delete_edge", var=result.var_of_edge[e]))
            del ends[result.var_of_edge[e]]


def _contract(result: MinorResult, ends: dict[int, tuple[int, int]], path: list[int], sep: tuple[int, int]) -> None:
    """Eliminate the inner vertices of a u-v path, ascending: the two
    edges at each merge into the one with the smaller id, and the larger
    id is forgotten."""
    h = result.graph
    path_vars = [result.var_of_edge[e] for e in path]
    for x in sorted({x for e in path for x in h.edges[e]} - set(sep)):
        w = result.vertex_names[x]
        kept, gone = sorted(f for f in path_vars if f in ends and w in ends[f])
        (a,) = set(ends[kept]) - {w}
        (b,) = set(ends[gone]) - {w}
        result.trace.append(MinorOp("forget_edge", var=gone, vertex=w, kept_var=kept))
        del ends[gone]
        ends[kept] = (a, b) if a < b else (b, a)


def _path_between(h: Graph, u: int, v: int, via: set[int]) -> list[int]:
    """Edge ids of a shortest u-v path whose interior stays inside `via`;
    breadth first from u, each vertex's edges ascending."""
    tree = search(h, u, via | {v})
    if v not in tree:
        raise AssertionError("no path through component; separator bookkeeping is wrong")
    return tree_path(tree, v)
