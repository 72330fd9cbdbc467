"""Parity-constraint formulas over graph edges.

A formula is a graph plus a 0/1 charge per vertex; one Boolean variable
per edge; the constraint at v requires the incident edge variables to sum
to the charge of v mod 2.  Assignments are int bitmasks: bit e is the
value of edge e's variable.  Restricting a formula by an edge is
`bp.expected_children`, on annotations.  Point evaluation, the
sub-constraints (parity constraints on part of a vertex's edges) and
their model counts belong to the lower bound's lemmas and are checked by
enumeration in the test suite (`tests/lemmas.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Cnf
from .graphs import Graph, connected_components, edge_from_line, search, tree_path
from .oracles import conj, parity
from .textformat import error, header, ints, lines_of, once

DEGREE_CAP = 8

Charge = tuple[int, ...]


def charge_of(n: int, ones) -> Charge:
    bits = [0] * n
    for v in ones:
        bits[v] ^= 1
    return tuple(bits)


def charge_add(a: Charge, b: Charge) -> Charge:
    return tuple(x ^ y for x, y in zip(a, b, strict=True))


def unit_charge(n: int, v: int) -> Charge:
    return charge_of(n, [v])


@dataclass(frozen=True)
class TseitinFormula:
    graph: Graph
    charge: Charge

    def __post_init__(self):
        if len(self.charge) != self.graph.n:
            raise ValueError("charge length must equal vertex count")
        if any(b not in (0, 1) for b in self.charge):
            raise ValueError("charge bits must be 0/1")


def is_satisfiable(t: TseitinFormula) -> bool:
    """Every connected component carries an even total charge."""
    return all(sum(t.charge[v] for v in comp) % 2 == 0 for comp in connected_components(t.graph))


def model_count(t: TseitinFormula) -> int:
    if not is_satisfiable(t):
        return 0
    k = len(connected_components(t.graph))
    return 1 << (t.graph.m - t.graph.n + k)


def satisfied(t: TseitinFormula, x):
    """Whether every constraint holds under the column accessor x (see
    `oracles`), independent of every other path."""
    ok = True
    for v in range(t.graph.n):
        ok = conj(ok, parity(x, t.graph.incident[v], t.charge[v]))
    return ok


def to_cnf(t: TseitinFormula) -> Cnf:
    """CNF over DIMACS variables edge_id + 1; 2^(deg-1) clauses per vertex.

    Each clause forbids one wrong-parity local assignment; a charged
    isolated vertex yields the empty clause.  Clause order is by vertex
    id, then by the local assignment pattern.
    """
    if t.graph.max_degree > DEGREE_CAP:
        raise ValueError(f"max degree {t.graph.max_degree} exceeds CNF cap {DEGREE_CAP}")
    clauses = []
    for v in range(t.graph.n):
        inc = t.graph.incident[v]
        d = len(inc)
        if d == 0:
            if t.charge[v] == 1:
                clauses.append(frozenset())
            continue
        for pattern in range(1 << d):
            if bin(pattern).count("1") % 2 == t.charge[v]:
                continue
            clause = frozenset(
                -(e + 1) if (pattern >> i) & 1 else (e + 1)
                for i, e in enumerate(inc)
            )
            clauses.append(clause)
    return Cnf(t.graph.m, tuple(clauses))


def charge_retarget_flips(g: Graph, c: Charge, c_star: Charge) -> set[int]:
    """Edge set whose polarity flip maps models of T(g,c) onto T(g,c*).

    The difference set D = {v : c(v) != c*(v)} has even size per component;
    pair its vertices in ascending id order within each component and take
    the symmetric difference of the pairing paths in a BFS spanning tree
    rooted at the component's smallest vertex.
    """
    for charge in (c, c_star):
        if not is_satisfiable(TseitinFormula(g, charge)):
            raise ValueError("both charges must be satisfiable")
    flips = set()
    for comp in connected_components(g):
        diff = sorted(v for v in comp if c[v] != c_star[v])
        if diff:
            tree = search(g, min(comp))
            for a, b in zip(diff[0::2], diff[1::2], strict=True):
                flips ^= set(tree_path(tree, a)) ^ set(tree_path(tree, b))
    return flips


# --- text format ------------------------------------------------------------
#
# p tseitin <n> <m>
# g <b1> ... <bn>
# e <u> <v>        (1-indexed)


def tseitin_to_text(t: TseitinFormula) -> str:
    g = t.graph
    lines = [f"p tseitin {g.n} {g.m}"]
    lines.append("g " + " ".join(str(b) for b in t.charge))
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def tseitin_from_text(text: str) -> TseitinFormula:
    n = m = None
    charge = None
    first: dict = {}  # "p", "g" -> the line index of the header, the charge line
    edges = []  # (line index, u, v)
    lines, rows = lines_of(text)
    for i, fields in rows:
        if not fields or fields[0][0] == "#":
            continue
        if fields[0] == "p":
            n, m = header(lines, i, fields, first, "tseitin")
        elif fields[0] == "g":
            once(lines, i, first, "g", "second charge line")
            charge = tuple(ints(lines, i, fields[1:]))
            if not set(charge) <= {0, 1}:
                raise error(lines, i, "charge bits must be 0/1")
        elif fields[0] == "e":
            try:
                u, v = map(int, fields[1:])
            except ValueError:
                u, v = ints(lines, i, fields[1:], 2)  # raises the error naming the line
            edges.append((i, u, v))
        else:
            raise error(lines, i, f"unrecognized line: {lines[i].strip()}")
    if n is None or charge is None:
        raise ValueError("missing header" if n is None else "missing charge line")
    if len(charge) != n:
        raise ValueError(f"header announces {n} vertices, charge line has {len(charge)} bits")
    if len(edges) != m:
        raise ValueError(f"header announces {m} edges, found {len(edges)}")
    seen: dict = {}
    return TseitinFormula(Graph(n, tuple(edge_from_line(lines, *edge, n, seen) for edge in edges)), charge)
