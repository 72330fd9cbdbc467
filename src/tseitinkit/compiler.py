"""Compile a well-structured branching program into a DNNF circuit.

The program solves the violated-vertex search relation for an
unsatisfiable formula T(G, c); the output circuit computes the
satisfiable formula T(G, c + 1_v) for a chosen root vertex v.  Processing
program nodes children-first, every node k keeps one gate per vertex of
its annotated subgraph, the gate for v computing T(G_k, c_k + 1_v):

* a sink for vertex u maps u to a constant-1 gate;
* a decision on a non-bridge edge e builds, per vertex v, the gate
  (not-x_e AND g0_v) OR (x_e AND g1_v) from the children's maps;
* a decision on a bridge e = ab takes the child i that handles the
  a-side component with literal l_e and the other child for the b-side:
  for v on the a-side the gate is l_e AND (g^i_v AND g^{1-i}_b), where
  the b-side factor works because flipping the literal shifts the b-side
  charge by exactly 1_b; the b-side is symmetric.

At most three gates per (node, vertex) pair are added, which bounds the
output by 3 * sum of |V(G_k)| before trimming to the reachable part.

The circuit is smooth as built: by induction over the program, the gate
for (k, v) mentions exactly the edges E_k of G_k.  A sink's G_k has no
edge and its gate is the constant 1.  At a non-bridge decision both
children live on G_k - e, so both OR branches mention E_k - e plus the
literal on e.  At a bridge the two children's edge sets are the two sides,
and the AND joins them with the literal on e.  Model counts therefore need
no smoothing pass: `model_count_smooth` only folds the sinks' constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bp import BranchingProgram, build_well_structured_bp, validate_well_structured
from .graphs import Graph, is_connected
from .nnf import CircuitBuilder, NnfCircuit, model_count_smooth, rename_flip, restrict_to_root, truth_table as circuit_truth_table
from .tseitin import (
    Charge,
    TseitinFormula,
    charge_add,
    charge_retarget_flips,
    is_satisfiable,
    model_count,
    unit_charge,
)
from .tseitin import truth_table as tseitin_truth_table


@dataclass
class CompileDetails:
    """Pre-trim view of the compilation for size accounting and the
    per-node invariant: `vertex_gate[k][v]` computes T(G_k, c_k + 1_v)."""

    all_gates: tuple
    vertex_gate: dict[int, dict[int, int]]
    added_gates: int
    added_gate_budget: int  # 3 * sum of |V(G_k)| over program nodes


def compile_bp_to_dnnf(b: BranchingProgram, g: Graph, c: Charge, root_vertex: int, with_details: bool = False):
    """DNNF computing T(g, c + 1_root_vertex) from a well-structured program,
    using the annotations its validation derives."""
    if not 0 <= root_vertex < g.n:
        raise ValueError("root vertex out of range")
    res = validate_well_structured(b, g, c)
    if not res:
        raise ValueError(f"program is not well-structured: {res.error} (node {res.node})")
    annotations = res.annotations

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

    full = builder.build(vertex_gate[b.source][root_vertex])
    circuit = restrict_to_root(full)
    if with_details:
        internal = sum(1 for gate in full.gates if gate.kind in ("A", "O"))
        budget = 3 * sum(len(annotations[k][0]) for k in b.topological())
        return circuit, CompileDetails(full.gates, vertex_gate, internal, budget)
    return circuit


def retarget(d: NnfCircuit, g: Graph, c_current: Charge, c_star: Charge) -> NnfCircuit:
    """Literal flips turning a circuit for T(g, c_current) into T(g, c_star)."""
    flips = charge_retarget_flips(g, c_current, c_star)
    return rename_flip(d, flips)


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
        """The circuit stays within 3 gates per program node and vertex."""
        return self.dnnf_size <= 3 * self.bp_size * self.graph.n


def pipeline(g: Graph, c_unsat: Charge, c_star: Charge, desk_cap: int = 16) -> tuple[PipelineReport, NnfCircuit, BranchingProgram]:
    """Build, validate, compile, retarget, and (at desk scale) verify."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if is_satisfiable(TseitinFormula(g, c_unsat)):
        raise ValueError("the source charge must be unsatisfiable")
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
        equal = bool((circuit_truth_table(d) == tseitin_truth_table(target)).all())
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
