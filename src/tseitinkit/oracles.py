"""Brute-force oracles: enumeration over every assignment.

The library's checkers are structural; enumeration is kept out of their
path and lives here, for the tests and for the desk-scale equivalence
verdicts.

Evaluators read an assignment through a column accessor `x`: `x(v)` is
the packed column of variable v.  Inside a truth-table block it is a
uint64 array in which assignment i of the block is bit i mod 64 of word
i // 64, the layout `np.packbits(..., bitorder="little")` produces; for
one assignment, `point(mask)`, it is the Python int -1 (every bit set) or
0.  Evaluators combine columns with `~`, `&`, `|` and `^` only, so the
per-block and the per-assignment evaluation share one implementation, and
the truth of a single assignment is `bool(value)`.  Constant values stay
Python bools and are folded by `conj`, `disj` and `parity`: mixed into
word arithmetic a bool would act as the one-bit word 1.

`truth_table` is the one truth-table engine: it evaluates a column
function on fixed blocks of 2^BLOCK_BITS assignments, so a circuit needs
O(gates x 2^BLOCK_BITS / 8) bytes of working memory besides the
2^num_vars-entry result, not O(gates x 2^num_vars).
"""

from __future__ import annotations

import numpy as np

BLOCK_BITS = 16
VAR_CAP = 24
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _block_columns(bits: int, words: int) -> list[np.ndarray]:
    """Packed columns of variables 0..bits-1 over the first 2^bits
    assignments of `words` words.  Variables below 6 repeat a word
    pattern; the others are runs of whole words."""
    index = np.arange(words)
    cols = []
    for v in range(bits):
        if v < 6:
            pattern = sum(1 << i for i in range(64) if (i >> v) & 1)
            cols.append(np.full(words, pattern, dtype=np.uint64))
        else:
            cols.append(np.where(((index >> (v - 6)) & 1).astype(bool), _ALL_ONES, np.uint64(0)))
    return cols


def truth_table(num_vars: int, column) -> np.ndarray:
    """column(x) on all 2^num_vars assignments (assignment = index).

    `column` maps a column accessor `x` (see the module docstring) to the
    packed uint64 words of its value on the block, or to one bool for a
    constant.  Variables at BLOCK_BITS or above are constant within a
    block, an all-ones or all-zeros array.
    """
    if num_vars > VAR_CAP:
        raise ValueError(f"{num_vars} variables exceed the truth table cap {VAR_CAP}")
    bits = min(num_vars, BLOCK_BITS)
    words = max(1, (1 << bits) >> 6)  # a block shorter than a word is padded
    low = _block_columns(bits, words)
    ones, zeros = np.full(words, _ALL_ONES), np.zeros(words, dtype=np.uint64)
    packed = np.empty(words << (num_vars - bits), dtype="<u8")
    for block, start in enumerate(range(0, len(packed), words)):
        cols = low + [ones if (block >> i) & 1 else zeros for i in range(num_vars - bits)]
        value = column(cols.__getitem__)
        packed[start:start + words] = (_ALL_ONES if value else 0) if isinstance(value, bool) else value
    return np.unpackbits(packed.view(np.uint8), bitorder="little")[:1 << num_vars].view(bool)


def point(mask: int):
    """Column accessor of the single assignment `mask` (bit v = variable v)."""
    return lambda v: -((mask >> v) & 1)


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
    a bool when the list is empty."""
    value = not charge
    for e in edge_ids:
        col = x(e)
        value = (~col if value else col) if isinstance(value, bool) else value ^ col
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
            if w not in vertices or parity(point(mask), g.incident[w], charge[w]):
                return False
    return True
