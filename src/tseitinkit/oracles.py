"""Brute-force oracles: enumeration over every assignment.

The library's checkers are structural; enumeration is kept out of their
path and lives here, for the tests and for the desk-scale equivalence
verdicts.  Evaluators take an assignment `x` that is either one int mask
(bit e = variable e) or a uint32 array of masks, so the per-assignment and
the per-block evaluation share one implementation.

`truth_table` is the one truth-table engine: it evaluates a column
function on fixed blocks of 2^BLOCK_BITS assignments, so the memory a
circuit needs is O(gates x block), not O(gates x 2^num_vars).
"""

from __future__ import annotations

import numpy as np

BLOCK_BITS = 16
VAR_CAP = 24


def truth_table(num_vars: int, column) -> np.ndarray:
    """column(block) on all 2^num_vars assignments (assignment = index).

    `column` maps a uint32 array of assignments (wide enough for VAR_CAP
    variables, and half the memory traffic of uint64) to a bool array, or
    to one bool for a constant.
    """
    if num_vars > VAR_CAP:
        raise ValueError(f"{num_vars} variables exceed the truth table cap {VAR_CAP}")
    out = np.empty(1 << num_vars, dtype=bool)
    step = 1 << min(num_vars, BLOCK_BITS)
    for start in range(0, len(out), step):
        out[start:start + step] = column(np.arange(start, start + step, dtype=np.uint32))
    return out


def parity(x, edge_ids):
    """XOR of the listed variables of x (0/1, or an array of 0/1)."""
    par = 0
    for e in edge_ids:
        par ^= (x >> e) & 1
    return par


def eval_bp(b, mask: int, start: int | None = None) -> int:
    """Vertex named by the sink that the walk from `start` (default: the
    source) reaches on the assignment."""
    u = b.source if start is None else start
    while u not in b.sinks:
        var, lo, hi = b.decisions[u]
        u = hi if (mask >> var) & 1 else lo
    return b.sinks[u]


def bp_semantics_hold(b, g, c, annotations) -> bool:
    """Sweep: the source is annotated with (g, c), and from every reachable
    node u, on each of the 2^|E_u| assignments to its annotated edges
    (every other variable 0), the walk reaches a sink on a vertex of V_u
    whose constraint of T(G_u, c_u) the assignment violates.

    Exponential in |E_u|; `validate_well_structured` implies it
    structurally.
    """
    root = (frozenset(range(g.n)), frozenset(range(g.m)), {v: c[v] for v in range(g.n)})
    if annotations.get(b.source) != root:
        return False
    for u in b.topological():
        if u not in annotations:
            return False
        vertices, edge_ids, charge = annotations[u]
        edges = sorted(edge_ids)
        for bits in range(1 << len(edges)):
            mask = 0
            for i, e in enumerate(edges):
                if (bits >> i) & 1:
                    mask |= 1 << e
            w = eval_bp(b, mask, u)
            if w not in vertices or parity(mask, g.incident[w]) == charge[w]:
                return False
    return True
