"""CNF clauses in DIMACS convention: variables 1..num_vars, literals signed."""

from __future__ import annotations

from dataclasses import dataclass

from .textformat import records


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        for cl in self.clauses:
            for lit in cl:
                v = abs(lit)
                if lit == 0 or not (1 <= v <= self.num_vars):
                    raise ValueError(f"literal {lit} out of range")
            if any(-lit in cl for lit in cl):
                raise ValueError(f"clause {sorted(cl)} contains a variable and its negation")


def clause_sorted(cl: frozenset[int]) -> list[int]:
    return sorted(cl, key=lambda lit: (abs(lit), lit < 0))


def cnf_to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for cl in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause_sorted(cl)) + " 0")
    return "\n".join(lines) + "\n"


def cnf_from_dimacs(text: str) -> Cnf:
    num_vars = None
    announced = None
    clauses = []
    for ln in records(text, comments=("c", "#")):
        if ln.fields[0] == "p":
            if len(ln.fields) != 4 or ln.fields[1] != "cnf":
                raise ln.error(f"bad header: {ln.text}")
            num_vars, announced = ln.ints(2, start=2)
        else:
            lits = ln.ints(start=0)
            if lits[-1] != 0 or 0 in lits[:-1]:
                raise ln.error(f"clause not zero-terminated: {ln.text}")
            clauses.append(frozenset(lits[:-1]))
    if num_vars is None:
        raise ValueError("missing header")
    if announced != len(clauses):
        raise ValueError(f"header announces {announced} clauses, found {len(clauses)}")
    return Cnf(num_vars, tuple(clauses))
