"""Compile a well-structured branching program into a DNNF circuit.

The program solves the violated-vertex search relation for an
unsatisfiable formula T(G, c); the output circuit computes the
satisfiable formula T(G, c + 1_r) for a chosen root vertex r.  The gate
for a (program node k, vertex v of G_k) pair computes T(G_k, c_k + 1_v):

* a sink for vertex u maps u to the constant 1;
* a decision on a non-bridge edge e builds the gate
  (not-x_e AND g0_v) OR (x_e AND g1_v) from the children's gates for v;
* a decision on a bridge e = ab takes the child i that handles the
  a-side component with literal l_e and the other child for the b-side:
  for v on the a-side the gate is l_e AND (g^i_v AND g^{1-i}_b), where
  the b-side factor works because flipping the literal shifts the b-side
  charge by exactly 1_b; the b-side is symmetric.

A sink's constant 1 is folded as it is used, since AND with 1 is the
identity: a non-bridge decision takes the bare literal where a child is
a sink, and a bridge drops a sink child from its inner AND, leaving the
literal alone when both children are sinks.  The constant-1 gate is
made only when the source itself is a sink (m = 0).

Demand.  The paper's construction builds the gate of every pair, at most
three gates each, so at most 3 * sum of |V(G_k)| gates.  Only the pairs
the gate for (source, r) reaches matter.  `compile_bp_to_dnnf` runs the
three rules above as one memoized recursion from (source, r): the gate
for (k, v) asks for (lo, v) and (hi, v) at a non-bridge decision, and
for v's side child with v and the other child with the end of e on that
child's side at a bridge.  Each pair is built once, after the pairs it
joins and only if the root reaches it; these are the demanded pairs.
The recursion runs through `recursion.run`, so depth is bounded only by
memory.  The output is the all-pairs circuit trimmed to the root with its
constants folded, up to gate numbering (the tests keep the all-pairs
construction, constant-1 sinks and all, as the reference).

One vertex per node.  If every node decides the lowest-ranked edge of
E_k in one ranking of E(G), as `build_well_structured_bp` does, each
node is demanded at exactly one vertex.  Call a vertex set a block when
it spans a component of the edges ranked >= t for some t (singletons
included); blocks are laminar.  As in the builder's size bound, if k
decides e_k, E_k is the set of edges ranked >= rank(e_k) inside the
block V_k.  At a bridge e_k, G_k - e_k splits V_k into two blocks with
no block strictly between them and V_k: a block for t <= rank(e_k) that
meets V_k contains it, one for t > rank(e_k) lies in one side.  So the
distinct vertex sets on every path from the source to k are the same
chain: all blocks that contain V_k.  Non-bridge decisions keep both the
set and the vertex.  A bridge from a block W to a side W' is the
highest-ranked edge of G between W' and W - W' (one ranked higher would
lie in G_k - e_k and join the sides), so the vertex it hands down, kept
if it lies in W' and else that edge's end in W', depends only on (W, W')
and the vertex at W.  From r at V(G), the demanded vertex of k is a
function of V_k alone.

The claim can fail for other well-structured programs.  On the diamond
(4-cycle 0-1-2-3 with chord 02, c = 1_0, r = 0), decide 02, then on
x02 = 0 decide 03 and 12, on x02 = 1 decide 12 and 03.  The paths
x02 x03 x12 = 001 and 100 reach the same annotation ({2, 3}, {23},
c_2 = 1), through bridge 12 and bridge 03, which demand it at 2 and at 3.

Size.  A demanded pair adds at most three gates at a non-bridge decision
and two at a bridge, one fewer per sink child: a decision above two
sinks adds one gate, a bridge above one sink adds one and a bridge
above two adds none.  Literal leaves are shared, so in general the
output has at most 3 * (demanded decision pairs) internal gates.  For one vertex per
node that is at most 3 * (decision nodes), with at most 3 * |program| +
2m + 1 nodes counting the leaves.  The 1/|V(G)| factor in the paper's
refutation bound, length >= 2^Omega(tw(G)) / |V(G)|, comes from this
step: a program of size L yields a DNNF of at most 3 * L * |V(G)| gates.
For programs decided by one edge ranking the bound is 3 * L, so the
factor is not needed for them.  A program read off a regular refutation
need not decide that way, and the diamond shows that its nodes can be
demanded at several vertices, so for those the factor stays.

The circuit is smooth as built: by induction over the program, the gate
for (k, v) mentions exactly the edges E_k of G_k.  A sink's G_k has no
edge, and its constant 1 mentions none, so folding it changes no gate's
variables.  At a non-bridge decision both children live on G_k - e, so
both OR branches mention E_k - e plus the literal on e.  At a bridge the
two children's edge sets are the two sides, and the AND joins them with
the literal on e.  Model counts therefore need no smoothing pass: the
package has none, and `nnf.smooth` only checks the circuit and returns
it.  The constant 1 is left only as the whole circuit for m = 0, which
`model_count_smooth` counts as one model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bp import BranchingProgram, build_well_structured_bp, validate_well_structured
from .graphs import Graph
from .nnf import CircuitBuilder, NnfCircuit, model_count_smooth, rename_flip, root_value
from .oracles import tables_equal
from .recursion import run
from .tseitin import (
    Charge,
    TseitinFormula,
    charge_add,
    charge_retarget_flips,
    is_satisfiable,
    model_count,
    satisfied,
    unit_charge,
)


def compile_bp_to_dnnf(b: BranchingProgram, g: Graph, c: Charge, root_vertex: int) -> NnfCircuit:
    """DNNF computing T(g, c + 1_root_vertex) from a well-structured program,
    using the annotations its validation derives.  Only the (node, vertex)
    pairs the root reaches get gates (see the module docstring)."""
    if not 0 <= root_vertex < g.n:
        raise ValueError("root vertex out of range")
    res = validate_well_structured(b, g, c)
    if not res:
        raise ValueError(f"program is not well-structured: {res.error} (node {res.node})")
    vertices = {k: ann[0] for k, ann in res.annotations.items()}
    builder = CircuitBuilder(g.m)
    gate: dict[tuple[int, int], int] = {}

    def conj(x, y):
        """x AND y, where None stands for a sink's constant 1."""
        return y if x is None else x if y is None else builder.gate_and(x, y)

    def make(k: int, v: int):
        """The gate for (k, v), computing T(G_k, c_k + 1_v); None for a sink."""
        if k in b.sinks:
            return None
        var, lo, hi = b.decisions[k]
        bridge = vertices[lo] != vertices[k]
        if bridge:
            # v's side child with v, the other child with e's end on its side
            own, other = (lo, hi) if (vertices[lo] >> v) & 1 else (hi, lo)
            a, bb = g.edges[var]
            pairs = ((own, v), (other, a if (vertices[other] >> a) & 1 else bb))
        else:
            pairs = ((lo, v), (hi, v))  # both children live on G_k - e
        children = []
        for pair in pairs:
            if pair not in gate:
                gate[pair] = yield pair
            children.append(gate[pair])
        if bridge:
            return conj(builder.literal(var, own == hi), conj(*children))
        left = conj(builder.literal(var, False), children[0])
        right = conj(builder.literal(var, True), children[1])
        return builder.gate_or(left, right)

    root = run(make, b.source, root_vertex)
    return builder.build(builder.const(1) if root is None else root)


def retarget(d: NnfCircuit, g: Graph, c_current: Charge, c_star: Charge) -> NnfCircuit:
    """Literal flips turning a circuit for T(g, c_current) into T(g, c_star)."""
    flips = charge_retarget_flips(g, c_current, c_star)
    return rename_flip(d, flips)


def equivalent(d: NnfCircuit, t: TseitinFormula) -> bool:
    """Brute force: the circuit and the formula agree on every one of the
    2^m assignments (`oracles.tables_equal`, which stops at the first
    block of assignments where they differ)."""
    return tables_equal(t.graph.m, lambda x: root_value(d, x), lambda x: satisfied(t, x))


@dataclass
class PipelineReport:
    graph: Graph
    bp_size: int
    dnnf_size: int
    model_count_expected: int
    model_count_circuit: int | None
    equivalence: str  # equivalent | mismatch | skipped

    @property
    def ratio_ok(self) -> bool:
        """The circuit stays within the paper's budget of 3 gates per
        (program node, vertex of G) pair, 3 * bp_size * n in all.  Built
        programs compile to at most 3 gates per decision node (see the
        module docstring), well inside it."""
        return self.dnnf_size <= 3 * self.bp_size * self.graph.n


DESK_SCALE_CAP = 16  # the default largest m that `pipeline` checks against brute force


def pipeline(g: Graph, c_unsat: Charge, c_star: Charge, desk_cap: int = DESK_SCALE_CAP) -> tuple[PipelineReport, NnfCircuit, BranchingProgram]:
    """Build, validate, compile, retarget, and (if m <= desk_cap) verify."""
    if not is_satisfiable(TseitinFormula(g, c_star)):
        raise ValueError("the target charge must be satisfiable")
    bp = build_well_structured_bp(g, c_unsat)
    root_vertex = 0
    compiled = compile_bp_to_dnnf(bp, g, c_unsat, root_vertex)
    c_compiled = charge_add(c_unsat, unit_charge(g.n, root_vertex))
    d = retarget(compiled, g, c_compiled, c_star)
    target = TseitinFormula(g, c_star)
    expected = model_count(target)
    verdict = "skipped"
    counted = None
    if g.m <= desk_cap:
        equal = equivalent(d, target)
        counted = model_count_smooth(d)
        verdict = "equivalent" if equal and counted == expected else "mismatch"
    report = PipelineReport(
        graph=g,
        bp_size=bp.size,
        dnnf_size=d.size,
        model_count_expected=expected,
        model_count_circuit=counted,
        equivalence=verdict,
    )
    return report, d, bp
