"""CNF clauses in DIMACS convention: variables 1..num_vars, literals signed."""

from __future__ import annotations

from dataclasses import dataclass

from .textformat import error, header, ints, lines_of


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
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
    first: dict = {}  # "p" -> the header's line index
    clauses = []
    where = []  # the line index of each clause
    lines, rows = lines_of(text)
    for i, fields in rows:
        if not fields or fields[0][0] in "c#":
            continue
        if fields[0] == "p":
            num_vars, announced = header(lines, i, fields, first, "cnf")
        else:
            try:
                lits = list(map(int, fields))
            except ValueError:
                lits = ints(lines, i, fields)  # raises the error naming the line
            if lits[-1] != 0 or 0 in lits[:-1]:
                raise error(lines, i, f"clause not zero-terminated: {lines[i].strip()}")
            clauses.append(frozenset(lits[:-1]))
            where.append(i)
    if num_vars is None:
        raise ValueError("missing header")
    if announced != len(clauses):
        raise ValueError(f"header announces {announced} clauses, found {len(clauses)}")
    try:
        return Cnf(num_vars, tuple(clauses))
    except ValueError:
        for i, cl in zip(where, clauses):
            problem = _clause_problem(cl, num_vars)
            if problem:
                raise error(lines, i, problem) from None
        raise
