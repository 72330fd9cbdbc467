"""Negation-normal-form circuits with binary gates over edge variables.

Gates live in a topologically ordered array (children before parents);
leaves are literals or 0/1 constants, internal gates are binary AND/OR.
The size of a circuit is its count of internal gates.  An AND gate is
decomposable when its children share no variables; an OR gate is smooth
(complete) when its children mention the same variables.  Gates are
NamedTuples, built by position in the library.  Circuits are immutable:
transforms never mutate their input, and return it unchanged when there
is nothing to change (`restrict_to_root` when every gate is reachable,
`rename_flip` with no flips).

The package smooths nothing.  Every circuit the compiler emits is smooth
as built, so `smooth` only checks that a circuit is decomposable and
smooth and returns it; a circuit that is not is refused, not padded.

Every bottom-up reading of a circuit is one children-first pass,
`gate_values`, with its own leaf and gate rules: the supports, the value
under a column accessor (see `oracles`), and the model count by the
usual sum/product rule, which is exact on smooth circuits whose OR gates
split models disjointly; every circuit the compiler emits is of that
decision form.  Proof trees and the rectangles of models accepted
through one gate, on which the lower bound rests, are enumerated at desk
scale in the test suite (`tests/lemmas.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, or_
from typing import NamedTuple

from .oracles import conj, disj
from .textformat import error, ints, lines_of

LIT = "L"
CONST = "C"
AND = "A"
OR = "O"


class Gate(NamedTuple):
    # Built by position: a third of the cost of a frozen dataclass built by
    # keyword.  Loops read fields by name; CPython 3.11 unpacks a tuple
    # subclass through its iterator, which measured slower except in loops
    # that read every field (`gate_values`, `nnf_to_text`).
    kind: str
    a: int = -1  # child id, or constant value for CONST
    b: int = -1
    var: int = -1  # variable id for LIT
    positive: bool = True


@dataclass(frozen=True)
class NnfCircuit:
    gates: tuple[Gate, ...]
    root: int
    num_vars: int

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        for i, g in enumerate(self.gates):
            if g.kind in (AND, OR):
                if not (0 <= g.a < i and 0 <= g.b < i):
                    raise ValueError(f"gate {i} not in topological order")
            elif g.kind == LIT and not 0 <= g.var < self.num_vars:
                raise ValueError(f"gate {i}: variable {g.var} out of range")

    @cached_property
    def var_masks(self) -> tuple[int, ...]:
        """Each gate's support: bit v is set when a literal leaf on
        variable v lies below it."""
        return tuple(gate_values(self, lambda var, positive: 1 << var, lambda value: 0, or_, or_))

    @property
    def size(self) -> int:
        """Internal gate count (leaves excluded)."""
        return sum(1 for g in self.gates if g.kind in (AND, OR))

    @property
    def node_count(self) -> int:
        return len(self.gates)


class CircuitBuilder:
    """Construction helper; deduplicates literal and constant leaves."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.gates: list[Gate] = []
        self._leaves: dict[tuple, int] = {}

    def _add(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def literal(self, var: int, positive: bool) -> int:
        key = (LIT, var, positive)
        if key not in self._leaves:
            self._leaves[key] = self._add(Gate(LIT, -1, -1, var, positive))
        return self._leaves[key]

    def const(self, value: int) -> int:
        key = (CONST, value)
        if key not in self._leaves:
            self._leaves[key] = self._add(Gate(CONST, value))
        return self._leaves[key]

    def gate_and(self, a: int, b: int) -> int:
        return self._add(Gate(AND, a, b))

    def gate_or(self, a: int, b: int) -> int:
        return self._add(Gate(OR, a, b))

    def build(self, root: int) -> NnfCircuit:
        return NnfCircuit(tuple(self.gates), root, self.num_vars)


def _reachable(d: NnfCircuit) -> list[int]:
    """Ids of the gates reachable from the root, ascending (children first).

    One sweep down from the root: parents come after their children, so
    every parent that can mark a gate is visited before the gate is.
    """
    gates = d.gates
    live = [False] * len(gates)
    live[d.root] = True
    for i in range(d.root, -1, -1):
        if live[i]:
            g = gates[i]
            if g.kind in (AND, OR):
                live[g.a] = live[g.b] = True
    return [i for i, keep in enumerate(live) if keep]


def restrict_to_root(d: NnfCircuit) -> NnfCircuit:
    """Drop gates unreachable from the root; d itself if none is."""
    keep = _reachable(d)
    if len(keep) == len(d.gates):
        return d
    remap = {old: new for new, old in enumerate(keep)}
    gates = []
    for old in keep:
        g = d.gates[old]
        if g.kind in (AND, OR):
            gates.append(Gate(g.kind, remap[g.a], remap[g.b]))
        else:
            gates.append(g)
    return NnfCircuit(tuple(gates), remap[d.root], d.num_vars)


def validate_decomposable(d: NnfCircuit) -> bool:
    masks = d.var_masks
    return all(
        not (masks[g.a] & masks[g.b])
        for g in d.gates
        if g.kind == AND
    )


def is_smooth(d: NnfCircuit) -> bool:
    masks = d.var_masks
    return all(masks[g.a] == masks[g.b] for g in d.gates if g.kind == OR)


def gate_values(d: NnfCircuit, x, const=bool, conj=conj, disj=disj) -> list:
    """Value of every gate, children first: `x(var, positive)` at a
    literal, `const(value)` at a constant, `conj` / `disj` of the
    children's values at an AND / OR gate.  The default rules evaluate
    under the column accessor x (see `oracles`): a column, or a bool for
    a gate that folds to a constant."""
    vals = []
    for kind, a, b, var, positive in d.gates:
        if kind == LIT:
            vals.append(x(var, positive))
        elif kind == CONST:
            vals.append(const(a))
        elif kind == AND:
            vals.append(conj(vals[a], vals[b]))
        else:
            vals.append(disj(vals[a], vals[b]))
    return vals


def root_value(d: NnfCircuit, x):
    """Value of the root under the column accessor x (see `oracles`)."""
    return gate_values(d, x)[d.root]


def rename_flip(d: NnfCircuit, flips: set[int]) -> NnfCircuit:
    """Swap the polarity of every literal on a flipped variable; d itself
    if there is none."""
    if not flips:
        return d
    gates = []
    for g in d.gates:
        if g.kind == LIT and g.var in flips:
            gates.append(Gate(LIT, -1, -1, g.var, not g.positive))
        else:
            gates.append(g)
    return NnfCircuit(tuple(gates), d.root, d.num_vars)


def smooth(d: NnfCircuit) -> NnfCircuit:
    """d itself, once checked decomposable and smooth; a ValueError if it
    is not.  Nothing pads (see the module docstring); the padding
    smoother lives with the tests (`tests/lemmas.py`)."""
    if not validate_decomposable(d):
        raise ValueError("circuit must be decomposable")
    if not is_smooth(d):
        raise ValueError("circuit must be smooth")
    return d


def model_count_smooth(d: NnfCircuit) -> int:
    """Bottom-up count over var(root) on a smooth decomposable circuit
    (checked by `smooth`): a literal counts 1, a constant its value, an
    AND gate the product and an OR gate the sum of its children's counts.

    A constant leaf mentions no variable, so an OR gate with a constant
    child and a child that mentions variables is not smooth and is
    rejected.
    """
    return gate_values(smooth(d), lambda var, positive: 1, int, mul, add)[d.root]


# --- NNF file format (c2d compatible) ---------------------------------------
#
# nnf <nodes> <edges> <vars>
# L <signed-var>                 (1-based variable ids)
# A <count> <ids...>             (A 0 encodes constant true)
# O <j> <count> <ids...>         (O 0 0 encodes constant false)


def nnf_to_text(d: NnfCircuit) -> str:
    if d.root != d.node_count - 1:
        d = restrict_to_root(d)
    lines = [f"nnf {d.node_count} {2 * d.size} {d.num_vars}"]
    for kind, a, b, var, positive in d.gates:
        if kind == LIT:
            lines.append(f"L {var + 1 if positive else -(var + 1)}")
        elif kind == CONST:
            lines.append("A 0" if a else "O 0 0")
        elif kind == AND:
            lines.append(f"A 2 {a} {b}")
        else:
            lines.append(f"O 0 2 {a} {b}")
    return "\n".join(lines) + "\n"


def _comment(line: str) -> bool:
    """An nnf comment: the stripped line starts with `c ` (`c` and a space)."""
    return line.strip()[1:2] == " "


def nnf_from_text(text: str) -> NnfCircuit:
    """The first record is the header.  The node count it announces is
    checked before any node line, as if the records were counted first: a
    node line's error stands only when the count is right."""
    lines, rows = lines_of(text)
    for i, fields in rows:
        if fields and not (fields[0] == "c" and _comment(lines[i])):
            break
    else:
        raise ValueError("empty file")
    if fields[0] != "nnf" or len(fields) != 4:
        raise error(lines, i, f"bad header: {lines[i].strip()}")
    nodes, _, num_vars = ints(lines, i, fields[1:], 3)
    gates: list[Gate] = []
    fid: list[int] = []  # file node id -> gate index (after binarization)
    body = 0
    try:
        for i, fields in rows:
            if not fields or fields[0] == "c" and _comment(lines[i]):
                continue
            body += 1
            kind = fields[0]
            if kind == "A" or kind == "O":
                values = fields[1:] if kind == "A" else fields[2:]
                try:
                    count, *ids = map(int, values)
                except ValueError:
                    ints(lines, i, values)  # raises when a field is no integer
                    raise error(lines, i, f"no child count in {lines[i].strip()!r}") from None
                if count != len(ids):
                    raise error(lines, i, f"announces {count} children, lists {len(ids)}")
                if not ids:
                    gates.append(Gate(CONST, int(kind == "A")))
                    fid.append(len(gates) - 1)
                    continue
                if min(ids) < 0 or max(ids) >= len(fid):
                    raise error(lines, i, "child id does not name an earlier node")
                kind = AND if kind == "A" else OR
                cur = fid[ids[0]]
                for nxt in ids[1:]:
                    gates.append(Gate(kind, cur, fid[nxt]))
                    cur = len(gates) - 1
                fid.append(cur)
            elif kind == "L":
                try:
                    (sv,) = map(int, fields[1:])
                except ValueError:
                    (sv,) = ints(lines, i, fields[1:], 1)  # raises the error naming the line
                if not 1 <= abs(sv) <= num_vars:
                    raise error(lines, i, f"literal {sv} outside 1..{num_vars}")
                gates.append(Gate(LIT, -1, -1, abs(sv) - 1, sv > 0))
                fid.append(len(gates) - 1)
            else:
                raise error(lines, i, f"unrecognized node line: {lines[i].strip()}")
    except ValueError:
        body += sum(1 for i, fields in rows if fields and not (fields[0] == "c" and _comment(lines[i])))
        if body == nodes:
            raise
        # else the count is wrong, and that error comes first
    if body != nodes:
        raise ValueError(f"header announces {nodes} nodes, found {body}")
    if not fid:
        raise ValueError("circuit has no nodes")
    return NnfCircuit(tuple(gates), fid[-1], num_vars)
