"""Branching programs computing the violated-vertex search relation.

A decision node queries an edge variable and routes along its 0- or
1-wire; sinks name a vertex.  On an assignment that falsifies the parity
formula, a correct program must reach a vertex whose constraint the
assignment violates.

Well-structured programs additionally annotate every node with a
connected subgraph and a charge whose formula is unsatisfiable; deciding
an edge hands each child the unique odd-charged component of the
conditioned formula.  The source carries (G, c), so every annotation is
forced by (G, c) and the program: the validator derives them parents
first and returns them, and the builder keys its memo on them.  No
caller supplies annotations.

An annotation is three Python ints: the vertex mask of G_u, its edge
mask, and the charge mask (bit v set when c_u(v) is odd).  Deciding an
edge is mask arithmetic: membership is a bit test, oddness a popcount,
and a child's charge the parent's (flipped at both ends for the
1-literal) masked by the child's vertices.  Text formats carry no
annotations.

The builder ranks the edges once (`width.edge_order`) and decides the
lowest-ranked edge of every node's subgraph, which caps its size at
`width.order_bound`, 2^O(pathwidth) * poly(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, is_connected
from .recursion import run
from .textformat import error, ints, lines_of, once
from .tseitin import Charge, TseitinFormula, is_satisfiable
from .width import edge_order


@dataclass
class BranchingProgram:
    source: int
    decisions: dict[int, tuple[int, int, int]]  # id -> (edge var, 0-child, 1-child)
    sinks: dict[int, int]  # id -> vertex

    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        overlap = set(self.decisions) & set(self.sinks)
        if overlap:
            raise ValueError(f"ids used as both decision and sink: {sorted(overlap)}")
        if self.source not in self.decisions and self.source not in self.sinks:
            raise ValueError("source id unknown")
        # children before parents; raises on a dangling id or a cycle
        order: list[int] = []
        state: dict[int, int] = {}  # 1 = on the current path, 2 = done
        stack = [(self.source, False)]
        while stack:
            u, leaving = stack.pop()
            if leaving:
                state[u] = 2
                order.append(u)
            elif state.get(u) == 1:
                raise ValueError("cycle detected")
            elif u in state:
                continue
            elif u in self.decisions:
                state[u] = 1
                _, lo, hi = self.decisions[u]
                stack += [(u, True), (hi, False), (lo, False)]
            elif u in self.sinks:
                state[u] = 2
                order.append(u)
            else:
                raise ValueError(f"dangling node id {u}")
        self._order = tuple(order)

    @property
    def size(self) -> int:
        return len(self.decisions) + len(self.sinks)

    def topological(self) -> tuple[int, ...]:
        """Children before parents, restricted to nodes reachable from
        the source; computed once, when the program is built."""
        return self._order


# An annotation is three masks in the root graph's ids: the vertex set
# V_u (bit v), the edge set E_u (bit e) and the charge c_u, as the set of
# vertices of V_u where it is odd.  Two nodes carry the same subformula
# exactly when their triples are equal.
Annotation = tuple[int, int, int]


def _root(g: Graph, c: Charge) -> Annotation:
    """The source's annotation (G, c)."""
    return (1 << g.n) - 1, (1 << g.m) - 1, sum((c[v] & 1) << v for v in range(g.n))


def _sides(g: Graph, vertices: int, rest: int, a: int, b: int) -> list[tuple[int, int]]:
    """Components of the connected graph (vertices, rest + ab) minus ab, as
    (vertex mask, edge mask): one when ab is no bridge, else the two
    sides, the smaller first.

    The searches from a and b advance in turn, one vertex each, so a
    bridge costs only its smaller side; the larger side is the
    complement.  A vertex's unseen edges come off `incident_mask` one low
    bit at a time.
    """
    incident, edges = g.incident_mask, g.edges
    seen = [1 << a, 1 << b]
    found = [0, 0]
    stacks = ([a], [b])
    while True:
        for i in (0, 1):
            if not stacks[i]:
                return [(seen[i], found[i]), (vertices & ~seen[i], rest & ~found[i])]
            u = stacks[i].pop()
            new = incident[u] & rest & ~found[i]
            found[i] |= new
            while new:
                low = new & -new
                new ^= low
                x, y = edges[low.bit_length() - 1]
                w = x if y == u else y
                if (seen[1 - i] >> w) & 1:
                    return [(vertices, rest)]
                if not (seen[i] >> w) & 1:
                    seen[i] |= 1 << w
                    stacks[i].append(w)


def expected_children(g: Graph, ann: Annotation, var: int, splits: dict) -> tuple[Annotation, Annotation]:
    """The forced child annotations after deciding edge `var`.

    For each literal the conditioned formula keeps at most two components;
    exactly one carries odd charge, and the child gets that component.
    The 1-literal flips the charge at both ends of `var`.

    The components of G_u - e depend on (V_u, E_u, e) alone, not on c_u,
    so `splits`, the caller's memo keyed by that triple, holds `_sides`'s
    result (both sides, the same component twice when e is no bridge)
    and the ends of e for every node with the same subgraph and
    decision: the nodes of one rank of the builder differ only in their
    charge.  What reads the charge runs for every node: e in E_u and the
    odd total before the lookup, the odd side after it.
    """
    vertices, edge_ids, charge = ann
    if var < 0 or not (edge_ids >> var) & 1:
        raise ValueError(f"decision edge {var} not in the annotated subgraph")
    if not charge.bit_count() & 1:
        raise ValueError("no odd component after conditioning; parent annotation not unsatisfiable")
    key = (vertices, edge_ids, var)
    split = splits.get(key)
    if split is None:
        a, b = g.edges[var]
        sides = _sides(g, vertices, edge_ids & ~(1 << var), a, b)
        split = splits[key] = (*sides[0], *sides[-1], 1 << a | 1 << b)
    verts, edges, other_verts, other_edges, ends = split
    flipped = charge ^ ends
    kept, kept_flipped = charge & verts, flipped & verts
    return (
        (verts, edges, kept) if kept.bit_count() & 1 else (other_verts, other_edges, charge & other_verts),
        (verts, edges, kept_flipped) if kept_flipped.bit_count() & 1 else (other_verts, other_edges, flipped & other_verts),
    )


@dataclass
class ValidationResult:
    ok: bool
    error: str | None = None
    node: int | None = None
    annotations: dict[int, Annotation] | None = None  # set only when ok

    def __bool__(self):
        return self.ok


def validate_well_structured(b: BranchingProgram, g: Graph, c: Charge) -> ValidationResult:
    """Check the three structural conditions, deriving the forced
    annotations on the way, in one pass parents first.

    The source is annotated with (G, c) (condition 1) and, parents first,
    each decision hands its children the annotations `expected_children`
    forces (condition 3); a child reached from two parents must be forced
    to the same annotation by both.  The conditions imply that every node
    u solves the search relation of its annotation T(G_u, c_u), by
    induction from the sinks; the source carries the connected,
    odd-charged (G, c), so the program solves the search relation of
    T(G, c).  At a sink for v, T({v}, {}, 1) is violated by the empty
    assignment.  At a decision on e = ab, the child for x_e is annotated
    with the odd component (V', E', c') of G_u - e under c_u flipped at a
    and b when x_e = 1.  Every decision queries an edge of its own
    annotation and annotations shrink downward, so the child's subtree
    queries only edges of E' and, by induction, reaches w in V' whose
    E'-parity differs from c'(w).  Every edge of G_u - e at w lies in E',
    and x_e adds to the parity at w exactly when the flip changed c'(w),
    so the E_u-parity at w differs from c_u(w).
    `oracles.bp_semantics_hold` checks the same property by enumeration.

    Work: O(size + s * m) for s distinct (V_u, E_u, e) splits.  The
    `_sides` memo lives for this call only and holds no annotation, only
    components of subgraphs the validator itself derived; every node's
    annotation, charge checks and odd side are still derived here, so
    the verdict rests on nothing the builder computed.

    Condition 3 also makes the program read-once, with every decision
    variable an edge id.  `expected_children` requires the decided edge e
    to be in E_u and hands each child a subset of E_u - e, and a child
    reached from two parents must be forced to the same annotation, so
    along every path a decided edge has left the annotation: deciding it
    again fails condition 3 with "decision edge e not in the annotated
    subgraph".  A variable outside 0..m-1 is never in E_u and fails the
    same way.
    """
    if not is_connected(g):
        return ValidationResult(False, "annotated subgraph is not connected", b.source)
    if sum(c) % 2 != 1:
        return ValidationResult(False, "annotated formula is satisfiable", b.source)

    # Parents first, so every node is annotated by its first parent before
    # it is visited; forced annotations are connected, odd-charged components.
    annotations = {b.source: _root(g, c)}
    splits: dict = {}
    for u in reversed(b.topological()):
        if u in b.sinks:
            v = b.sinks[u]
            if not 0 <= v < g.n or annotations[u] != (1 << v, 0, 1 << v):
                return ValidationResult(False, "condition 2: sink annotation must be its unit-charged vertex", u)
            continue
        var, lo, hi = b.decisions[u]
        try:
            forced = expected_children(g, annotations[u], var, splits)
        except ValueError as exc:
            return ValidationResult(False, f"condition 3: {exc}", u)
        for literal, child, want in zip((0, 1), (lo, hi), forced):
            if annotations.setdefault(child, want) != want:
                return ValidationResult(False, f"condition 3: {literal}-child annotation mismatch", u)
    return ValidationResult(True, annotations=annotations)


def build_well_structured_bp(g: Graph, c: Charge) -> BranchingProgram:
    """Memoized well-structured program for an unsatisfiable formula.

    Every node decides the lowest-ranked edge of its annotation in one
    `width.edge_order` of the whole graph.  The builder works on a copy
    of g whose edge ids are the ranks, so that edge is the lowest bit of
    the edge mask, and maps it back to g's id when it records the
    decision.  The memo key is the annotation triple itself; renaming
    edges is a bijection, so two nodes share an id exactly when their
    subformulas coincide.  Ids are assigned in
    preorder, the 0-child's subprogram before the 1-child's; the recursion
    runs through `recursion.run`, so depth is bounded only by memory.

    Size bound: the size is at most `width.order_bound(g, order)`, that is
    n + sum over ranks r of 2^max(|dC_r| - 1, 0), which is
    2^O(pathwidth) * poly(n).  Let a decision at rank r hand a child the
    edge set E_u.  By induction E_u is a component of the edges ranked
    above r, and its lowest-ranked edge r' makes it the component C_r' of
    the edges ranked >= r' that holds r'.  Every edge ranked below r' that
    touches C_r' was decided on the way to u, so c_u equals c off dC_r',
    the vertices of C_r' touching such an edge; its parity on dC_r' is
    odd, which leaves at most 2^max(|dC_r'| - 1, 0) annotations, hence
    decision nodes, per rank.  Sinks are unit-charged single vertices, at
    most n of them.  The same argument shows that the decisions at one
    rank share (V_u, E_u) = C_r' and differ only in their charge, so the
    per-call `splits` memo of `expected_children` runs `_sides` once per
    rank, not once per node.
    """
    t = TseitinFormula(g, c)
    if is_satisfiable(t):
        raise ValueError("formula is satisfiable; no search program to build")
    if not is_connected(g):
        raise ValueError("graph must be connected")

    order = edge_order(g)
    ranked = Graph(g.n, tuple(g.edges[e] for e in order))  # edge id = rank in g
    decisions: dict[int, tuple[int, int, int]] = {}
    sinks: dict[int, int] = {}
    memo: dict[Annotation, int] = {}
    splits: dict = {}  # `expected_children`'s memo of `_sides`

    def visit(*ann: int):
        """The id for annotation `ann` (on `ranked`), before its children's."""
        nid = memo[ann] = len(memo)
        vertices, edge_ids, _ = ann
        if not edge_ids:
            sinks[nid] = vertices.bit_length() - 1  # a lone vertex
            return nid
        r = (edge_ids & -edge_ids).bit_length() - 1  # the lowest-ranked edge
        children = []
        for want in expected_children(ranked, ann, r, splits):
            children.append(memo[want] if want in memo else (yield want))
        decisions[nid] = (order[r], *children)
        return nid

    return BranchingProgram(run(visit, *_root(ranked, c)), decisions, sinks)


# --- text format ------------------------------------------------------------
#
# source <id>
# node <id> <edge-var> <child0> <child1>
# sink <id> <vertex>


def bp_to_text(b: BranchingProgram) -> str:
    lines = [f"source {b.source}"]
    for nid in sorted(b.decisions):
        var, lo, hi = b.decisions[nid]
        lines.append(f"node {nid} {var} {lo} {hi}")
    for nid in sorted(b.sinks):
        lines.append(f"sink {nid} {b.sinks[nid]}")
    return "\n".join(lines) + "\n"


def bp_from_text(text: str) -> BranchingProgram:
    source = None
    decisions = {}
    sinks = {}
    first: dict[int | None, int] = {}  # node or sink id, None for the source -> its line index
    lines, rows = lines_of(text)
    for i, fields in rows:
        if not fields or fields[0][0] == "#":
            continue
        if fields[0] == "node":
            try:
                key, var, lo, hi = map(int, fields[1:])
            except ValueError:
                key, var, lo, hi = ints(lines, i, fields[1:], 4)  # raises the error naming the line
            decisions[key] = (var, lo, hi)
        elif fields[0] == "sink":
            key, v = ints(lines, i, fields[1:], 2)
            sinks[key] = v
        elif fields[0] == "source":
            (source,) = ints(lines, i, fields[1:], 1)
            once(lines, i, first, None, "second source line")
            continue
        else:
            raise error(lines, i, f"unrecognized line: {lines[i].strip()}")
        if key in first:  # `once`, inline on the hot lines
            raise error(lines, i, f"repeated id {key}, first on line {first[key] + 1}")
        first[key] = i
    if source is None:
        raise ValueError("missing source line")
    return BranchingProgram(source, decisions, sinks)
