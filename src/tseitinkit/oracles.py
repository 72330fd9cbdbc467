"""Brute-force oracles: enumeration over every assignment.

The library's checkers are structural; enumeration is kept out of their
path and lives here, for the tests and for the desk-scale equivalence
verdicts.

Evaluators read an assignment through a column accessor `x`: `x(v)` is
the packed column of variable v.  Inside a truth-table block it is a
uint64 array in which assignment i of the block is bit i mod 64 of word
i // 64, the layout `np.packbits(..., bitorder="little")` produces, for
the variables below BLOCK_BITS; a variable at BLOCK_BITS or above is
constant within a block and is handed over as a Python bool.  For one
assignment, `point(mask)`, a column is the Python int -1 (every bit set)
or 0.  Evaluators combine columns through `neg`, `conj`, `disj` and
`parity` only, so the per-block and the per-assignment evaluation share
one implementation, and the truth of a single assignment is
`bool(value)`.  Those four fold constant values, which stay Python
bools: mixed into word arithmetic a bool would act as the one-bit word 1
(and `~True` is -2).

`truth_table` and `tables_equal` share the one truth-table engine: it
evaluates a column function on fixed blocks of 2^BLOCK_BITS assignments,
so a circuit needs O(gates x 2^BLOCK_BITS / 8) bytes of working memory.
`truth_table` unpacks every block into the 2^num_vars-entry result;
`tables_equal` compares two column functions block by block on their
packed words and stops at the first block where they differ, so it
builds no 2^num_vars-entry array.

Only that engine needs numpy, and it imports numpy on first use: the
evaluators, and every module that reads a single assignment, run
without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BLOCK_BITS = 16
VAR_CAP = 24
_ALL_ONES = 0xFFFF_FFFF_FFFF_FFFF
# word pattern of variable v < 6: bit i is set when bit v of i is
_PATTERNS = [sum(1 << i for i in range(64) if (i >> v) & 1) for v in range(6)]


def _block_columns(bits: int, words: int) -> list[np.ndarray]:
    """Packed columns of variables 0..bits-1 over the first 2^bits
    assignments of `words` words.  Variables below 6 repeat a word
    pattern; the others are runs of whole words."""
    import numpy as np

    index = np.arange(words)
    cols = []
    for v in range(bits):
        if v < 6:
            cols.append(np.full(words, _PATTERNS[v], dtype=np.uint64))
        else:
            cols.append(np.where(((index >> (v - 6)) & 1).astype(bool), np.uint64(_ALL_ONES), np.uint64(0)))
    return cols


def _accessors(num_vars: int):
    """The column accessor of each block of 2^min(num_vars, BLOCK_BITS)
    assignments, block by block in order.

    A block shorter than a word is padded: columns repeat with the period
    of the block, so two values that agree on the block agree on the
    whole word.
    """
    if num_vars > VAR_CAP:
        raise ValueError(f"{num_vars} variables exceed the truth table cap {VAR_CAP}")
    bits = min(num_vars, BLOCK_BITS)
    low = _block_columns(bits, max(1, (1 << bits) >> 6))
    high = num_vars - bits
    return ((low + [bool((block >> i) & 1) for i in range(high)]).__getitem__ for block in range(1 << high))


def _packed(value):
    """A block value as packed words; a constant becomes one word that
    broadcasts over the block."""
    if isinstance(value, bool):
        import numpy as np

        return np.uint64(_ALL_ONES if value else 0)
    return value


def truth_table(num_vars: int, column) -> np.ndarray:
    """column(x) on all 2^num_vars assignments (assignment = index).

    `column` maps a column accessor `x` (see the module docstring) to the
    packed uint64 words of its value on the block, or to one bool for a
    constant.
    """
    import numpy as np

    accessors = _accessors(num_vars)  # checks the cap before the table is allocated
    packed = np.empty(max(1, (1 << num_vars) >> 6), dtype="<u8")
    rows = packed.reshape(1 << max(num_vars - BLOCK_BITS, 0), -1)  # one row of words per block
    for words, x in zip(rows, accessors):
        words[:] = _packed(column(x))
    return np.unpackbits(packed.view(np.uint8), bitorder="little")[:1 << num_vars].view(bool)


def tables_equal(num_vars: int, column_a, column_b) -> bool:
    """Whether two column functions (as for `truth_table`) agree on all
    2^num_vars assignments.

    Both are evaluated block by block and their packed words compared, up
    to the first block where they differ; no 2^num_vars-entry array is
    built.
    """
    return all((_packed(column_a(x)) == _packed(column_b(x))).all() for x in _accessors(num_vars))


def point(mask: int):
    """Column accessor of the single assignment `mask` (bit v = variable v)."""
    return lambda v: -((mask >> v) & 1)


def neg(a):
    """NOT a, folding a constant (bool) operand."""
    return (not a) if isinstance(a, bool) else ~a


def conj(a, b):
    """a AND b, folding constant (bool) operands."""
    if a is True or b is False:
        return b
    if b is True or a is False:
        return a
    return a & b


def disj(a, b):
    """a OR b, folding constant (bool) operands."""
    if a is False or b is True:
        return b
    if b is False or a is True:
        return a
    return a | b


def parity(x, edge_ids, charge: int):
    """Whether the XOR of the listed variables of x equals `charge` (0/1);
    a bool when every listed column is constant."""
    value = not charge
    for e in edge_ids:
        col = x(e)
        if isinstance(col, bool):
            value = neg(value) if col else value
        elif isinstance(value, bool):
            value = neg(col) if value else col
        else:
            value = value ^ col
    return value


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
    whose constraint of T(G_u, c_u) the assignment violates.  Annotations
    are (vertex mask, edge mask, odd-charge mask) triples, as
    `bp.validate_well_structured` returns them.

    Exponential in |E_u|; `validate_well_structured` implies it
    structurally.
    """
    root = ((1 << g.n) - 1, (1 << g.m) - 1, sum((c[v] & 1) << v for v in range(g.n)))
    if annotations.get(b.source) != root:
        return False
    for u in b.topological():
        if u not in annotations:
            return False
        vertices, edge_ids, charge = annotations[u]
        edges = [e for e in range(edge_ids.bit_length()) if (edge_ids >> e) & 1]
        for bits in range(1 << len(edges)):
            mask = 0
            for i, e in enumerate(edges):
                if (bits >> i) & 1:
                    mask |= 1 << e
            w = eval_bp(b, mask, u)
            if w < 0 or not (vertices >> w) & 1 or parity(point(mask), g.incident[w], (charge >> w) & 1):
                return False
    return True
