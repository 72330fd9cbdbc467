"""Brute-force oracles: enumeration over every assignment.

The library's checkers are structural; enumeration is kept out of their
path and lives here, for the tests and for the desk-scale equivalence
verdicts.

Evaluators read an assignment through a column accessor `x`: `x(v,
positive)` is the column of the literal of variable v with that sign
(positive by default).  Inside a truth-table block of 2^min(num_vars,
BLOCK_BITS) assignments a column is a non-negative Python int in which
bit i is set when the literal holds on assignment i of the block, for
the variables below BLOCK_BITS; a variable at BLOCK_BITS or above is
constant within a block and is handed over as a Python bool.  For one
assignment, `point(mask)`, a column is the int 1 or 0: a block of one
assignment.  Evaluators combine columns through `conj`, `disj` and
`parity` only, so the per-block and the per-assignment evaluation share
one implementation, and the truth of a single assignment is
`bool(value)`.  Those three fold constant values, which stay Python
bools: mixed into int arithmetic a bool would act as the one-bit int 1.

Evaluators never negate a column: NNF negates only at its leaves, whose
columns the accessor hands out, and parity negates by taking one
literal's negative column.  So every value stays a non-negative int no
wider than its block; CPython's `&`, `|` and `^` on negative ints are
several times slower.  A column function of the caller's own may still
use `~`: values are masked with the block's all-ones value where two of
them are compared and in the table returned.

`truth_table` and `tables_equal` share the one truth-table engine: it
evaluates a column function on fixed blocks of 2^BLOCK_BITS assignments,
so a circuit needs O(gates x 2^BLOCK_BITS / 8) bytes of working memory.
`truth_table` joins the blocks into one 2^num_vars-bit int; `tables_equal`
compares two column functions block by block and stops at the first
block where they differ, so it builds no 2^num_vars-bit value.
"""

from __future__ import annotations

BLOCK_BITS = 16
VAR_CAP = 24


def _block_columns(bits: int) -> list[int]:
    """Positive columns of variables 0..bits-1 over a block of 2^bits
    assignments.  Variable v has period 2^(v+1): 2^v clear bits, then 2^v
    set bits; the period is doubled up to the block."""
    size = 1 << bits
    cols = []
    for v in range(bits):
        run = 1 << v
        col, period = ((1 << run) - 1) << run, 2 * run
        while period < size:
            col |= col << period
            period *= 2
        cols.append(col)
    return cols


def _accessors(num_vars: int):
    """The all-ones value of a block of 2^min(num_vars, BLOCK_BITS)
    assignments, and the column accessor of each block, block by block
    in order."""
    if num_vars > VAR_CAP:
        raise ValueError(f"{num_vars} variables exceed the truth table cap {VAR_CAP}")
    bits = min(num_vars, BLOCK_BITS)
    full = (1 << (1 << bits)) - 1
    plain = _block_columns(bits)
    negated = [full ^ col for col in plain]

    def accessor(block: int):
        high = [bool((block >> i) & 1) for i in range(num_vars - bits)]
        columns = (negated + [not bit for bit in high], plain + high)
        return lambda v, positive=True: columns[positive][v]

    return full, map(accessor, range(1 << (num_vars - bits)))


def _masked(value, full: int) -> int:
    """A block value as an int within the block; a constant fills it."""
    if isinstance(value, bool):
        return full if value else 0
    return value & full


def truth_table(num_vars: int, column) -> int:
    """column(x) on all 2^num_vars assignments, as an int whose bit i is
    the value on assignment i.

    `column` maps a column accessor `x` (see the module docstring) to its
    value on the block: an int whose bit i is assignment i of the block,
    or one bool for a constant.
    """
    full, accessors = _accessors(num_vars)
    blocks = [_masked(column(x), full) for x in accessors]
    if len(blocks) == 1:
        return blocks[0]
    width = (1 << BLOCK_BITS) // 8
    return int.from_bytes(b"".join(block.to_bytes(width, "little") for block in blocks), "little")


def tables_equal(num_vars: int, column_a, column_b) -> bool:
    """Whether two column functions (as for `truth_table`) agree on all
    2^num_vars assignments.

    Both are evaluated block by block and compared, up to the first block
    where they differ; no 2^num_vars-bit value is built.
    """
    full, accessors = _accessors(num_vars)
    return all(_masked(column_a(x), full) == _masked(column_b(x), full) for x in accessors)


def point(mask: int):
    """Column accessor of the single assignment `mask` (bit v = variable v)."""
    return lambda v, positive=True: ((mask >> v) & 1) ^ (not positive)


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
    a bool when every listed column is constant.

    The constant columns fold into `value`, the truth of the equation on
    them alone; the first column that is not constant is read with the
    sign that applies `value`, so no column is negated.
    """
    value = not charge
    first, rest = None, 0
    for e in edge_ids:
        col = x(e)
        if isinstance(col, bool):
            value ^= col
        elif first is None:
            first = e
        else:
            rest ^= col
    return value if first is None else x(first, not value) ^ rest


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
