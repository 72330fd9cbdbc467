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
            problem = _clause_problem(cl, self.num_vars)
            if problem:
                raise ValueError(problem)


def _clause_problem(cl: frozenset[int], num_vars: int) -> str | None:
    """What makes `cl` no clause over variables 1..num_vars, if anything."""
    for lit in cl:
        if not 1 <= abs(lit) <= num_vars:
            return f"literal {lit} out of range"
    if any(-lit in cl for lit in cl):
        return f"clause {sorted(cl)} contains a variable and its negation"
    return None


def clause_sorted(cl: frozenset[int]) -> list[int]:
    return sorted(cl, key=lambda lit: (abs(lit), lit < 0))


def cnf_to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for cl in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause_sorted(cl)) + " 0")
    return "\n".join(lines) + "\n"


def cnf_from_dimacs(text: str) -> Cnf:
    """A clause `Cnf` rejects is looked up again to name its line."""
    num_vars = None
    announced = None
    clauses = []
    lines = []
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
            lines.append(ln)
    if num_vars is None:
        raise ValueError("missing header")
    if announced != len(clauses):
        raise ValueError(f"header announces {announced} clauses, found {len(clauses)}")
    try:
        return Cnf(num_vars, tuple(clauses))
    except ValueError:
        for ln, cl in zip(lines, clauses):
            problem = _clause_problem(cl, num_vars)
            if problem:
                raise ln.error(problem) from None
        raise
