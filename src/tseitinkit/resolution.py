"""Resolution refutation traces: checking, regularity, and DPLL generation.

A trace is a sequence of steps with strictly increasing ids.  Axiom steps
carry a clause of the input CNF; derived steps carry two antecedent ids
and must hold exactly a resolvent of them.  The pivot of a derived step
is not stored: `ResolutionTrace.pivots` derives it.  Literals are signed
DIMACS integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .cnf import Cnf, clause_sorted
from .recursion import run
from .textformat import records


@dataclass(frozen=True)
class Step:
    id: int
    clause: frozenset[int]
    antecedents: tuple[int, int] | None = None

    @property
    def is_axiom(self) -> bool:
        return self.antecedents is None


@dataclass(frozen=True)
class ResolutionTrace:
    steps: tuple[Step, ...]

    def __len__(self):
        return len(self.steps)

    @cached_property
    def pivots(self) -> tuple[int | None, ...]:
        """One entry per step: for a derived step the variable on which
        its earlier antecedents resolve to its clause (there is at most
        one, see `_pivot`), else None."""
        clauses: dict[int, frozenset[int]] = {}
        out = []
        for step in self.steps:
            pivot = None
            if not step.is_axiom:
                i, j = step.antecedents
                if i in clauses and j in clauses:
                    pivot = _pivot(clauses[i], clauses[j], step.clause)
            out.append(pivot)
            clauses[step.id] = step.clause
        return tuple(out)


@dataclass
class CheckResult:
    ok: bool
    error: str | None = None
    failed_step: int | None = None
    tautology_steps: list[int] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def resolve(a: frozenset[int], b: frozenset[int], pivot: int) -> frozenset[int]:
    """Resolvent of a (containing pivot) and b (containing -pivot)."""
    if pivot <= 0:
        raise ValueError("pivot must be a positive variable id")
    if pivot not in a or -pivot in a:
        raise ValueError(f"first antecedent must contain {pivot} and not {-pivot}")
    if -pivot not in b or pivot in b:
        raise ValueError(f"second antecedent must contain {-pivot} and not {pivot}")
    return (a - {pivot}) | (b - {-pivot})


def _pivot(a: frozenset[int], b: frozenset[int], clause: frozenset[int]) -> int | None:
    """The variable on which a and b, in either order, resolve to
    `clause`, or None.

    Where `resolve(first, second, p)` is defined, first holds p and not
    -p and second holds -p and not p, so the resolvent is exactly
    (a | b) - {p, -p}.  Hence `clause` is a resolvent only if it lies
    inside a | b and leaves out exactly one complementary pair {p, -p};
    then p is the only candidate, and it resolves when one antecedent
    holds p, the other -p, and neither holds both.  No second variable
    can qualify, as its pair would have to be all that is left out as
    well, so the one candidate is also the smallest: no sort, no retry.
    """
    union = a | b
    if len(union) - len(clause) != 2 or not clause <= union:
        return None
    lit, other = union - clause
    if lit != -other:
        return None
    p = abs(lit)
    first, second = (a, b) if p in a else (b, a)
    return p if -p in second and -p not in first and p not in second else None


def check_refutation(cnf: Cnf, trace: ResolutionTrace) -> CheckResult:
    """Validity check with a diagnostic naming the first failing step.

    Axioms must occur in the input CNF as literal sets; derived steps must
    equal a resolvent of their antecedents, which `trace.pivots` records;
    the final clause must be empty.  Tautological clauses are permitted
    but collected in the result.
    """
    if not trace.steps:
        return CheckResult(False, "empty trace")
    inputs = {frozenset(cl) for cl in cnf.clauses}
    seen: set[int] = set()
    result = CheckResult(True)
    last = None
    for step, pivot in zip(trace.steps, trace.pivots):
        if last is not None and step.id <= last:
            return CheckResult(False, f"step ids not strictly increasing at {step.id}", step.id)
        last = step.id
        if step.is_axiom:
            if step.clause not in inputs:
                return CheckResult(False, f"step {step.id}: axiom clause not in the input CNF", step.id)
        else:
            i, j = step.antecedents
            if i not in seen or j not in seen:
                return CheckResult(False, f"step {step.id}: antecedent does not precede the step", step.id)
            if pivot is None:
                return CheckResult(False, f"step {step.id}: clause is not the resolvent", step.id)
        if any(-lit in step.clause for lit in step.clause):
            result.tautology_steps.append(step.id)
        seen.add(step.id)
    if trace.steps[-1].clause:
        return CheckResult(False, "final clause is not empty", trace.steps[-1].id)
    result.tautology_steps = sorted(result.tautology_steps)
    return result


def check_regularity(trace: ResolutionTrace) -> bool:
    """No directed path resolves twice on the same variable.

    With edges antecedent -> derived labeled by the derived step's pivot
    (from `trace.pivots`; a step without one adds no label), a repeat on
    some path exists iff some edge's label already occurs on a path
    continuing upward from its head; `above[s]` accumulates exactly those
    labels (as a variable bitmask).  An antecedent that names its own step
    or a later one raises ValueError; `check_refutation` rejects such a
    trace as well.
    """
    label = {step.id: 1 << pivot for step, pivot in zip(trace.steps, trace.pivots) if pivot is not None}
    position = {step.id: i for i, step in enumerate(trace.steps)}
    users: dict[int, list[Step]] = {}
    for i, step in enumerate(trace.steps):
        if not step.is_axiom:
            for a in step.antecedents:
                if position.get(a, -1) >= i:
                    raise ValueError(f"step {step.id}: antecedent {a} is not an earlier step")
                users.setdefault(a, []).append(step)
    above: dict[int, int] = {}
    for step in reversed(trace.steps):
        mask = 0
        for d in users.get(step.id, ()):
            mask |= above[d.id] | label.get(d.id, 0)
        above[step.id] = mask
    for step in trace.steps:
        if above[step.id] & label.get(step.id, 0):
            return False
    return True


def _branch_variable(open_groups: list[tuple[int, int]]) -> int:
    """Most frequent variable among the shortest clauses, ties by id.

    Each entry is the bitmask of some clauses' unassigned variables and
    the number of those clauses; a variable counts once per clause.
    """
    width = min(mask.bit_count() for mask, _ in open_groups)
    counts: dict[int, int] = {}
    for mask, count in open_groups:
        if mask.bit_count() == width:
            while mask:
                low = mask & -mask
                mask ^= low
                counts[low] = counts.get(low, 0) + count
    return min(counts, key=lambda b: (-counts[b], b)).bit_length() - 1


class _TraceBuilder:
    def __init__(self):
        self.steps: list[Step] = []
        self.by_clause: dict[frozenset, list[int]] = {}
        self.pivots_below: dict[int, int] = {}

    def lookup(self, clause: frozenset, assigned_mask: int) -> int | None:
        """Reusable step with this clause whose pivot set avoids the
        variables assigned on the current path (keeps the DAG regular)."""
        for sid in self.by_clause.get(clause, ()):
            if not self.pivots_below[sid] & assigned_mask:
                return sid
        return None

    def add(self, clause, antecedents=None, pivot=None) -> int:
        sid = len(self.steps) + 1
        self.steps.append(Step(sid, clause, antecedents))
        below = 0
        if antecedents is not None:
            below = (1 << pivot) | self.pivots_below[antecedents[0]] | self.pivots_below[antecedents[1]]
        self.pivots_below[sid] = below
        self.by_clause.setdefault(clause, []).append(sid)
        return sid

    def trace(self, root: int) -> ResolutionTrace:
        """The steps that `root` reaches, in id order, ending at `root`."""
        wanted = {root}
        kept = []
        for step in reversed(self.steps[:root]):
            if step.id in wanted:
                kept.append(step)
                wanted.update(step.antecedents or ())
        return ResolutionTrace(tuple(reversed(kept)))


def dpll_refute(cnf: Cnf) -> ResolutionTrace:
    """Regular resolution refutation produced by a DPLL search.

    Branches on the most frequent variable of the shortest clauses; a
    branch whose two child clauses mention the branch literal in both
    polarities resolves them, otherwise the child clause that omits the
    variable is passed through.  Steps with identical clauses are shared
    when reuse cannot make a path resolve twice on one variable.  A
    satisfiable CNF is rejected when the search reaches an assignment that
    leaves no clause unsatisfied.  The search runs through
    `recursion.run`, so its depth is bounded only by memory.

    The search state is (alive, assigned_mask): bit i of `alive` is set
    while clause i is not yet satisfied, bit x of `assigned_mask` once
    variable x is assigned, and the search reads nothing else.  An alive
    clause holds no true literal, so it is open on exactly its unassigned
    variables; the first alive clause with none is the falsified one.

    A state is read one variable set at a time.  `groups` holds, once per
    CNF and in order of first occurrence, the mask of the clauses on each
    distinct variable set (a Tseitin CNF has 2^(d-1) per vertex) with the
    set's mask.  Clauses on one set share their unassigned variables, so
    a group's alive clauses are either all open on the same mask or all
    falsified.  The open ones enter `_branch_variable` as one mask
    weighted by their number: the minimum width, every variable's count
    and the tie by id come out as they would clause by clause, so the
    branch variable is the same.  The falsified ones are OR-ed together,
    and the lowest set bit is the first falsified clause in clause order.

    Each state is searched once, and a later visit takes the step the
    first returned.  It stays regular there: its pivots were branched on
    below the state, on variables the state marks unassigned.  A second
    search would add no step and end at the same step, since every lookup
    on its way finds what the first one stored; the cache changes the
    running time, not the trace.  A state never recurs below itself, as
    `assigned_mask` grows along every path.

    The trace ends at the root's step and keeps the steps it reaches: a
    root that passes its first child's step through leaves the second
    child's steps unused.
    """
    builder = _TraceBuilder()
    satisfied_by: dict[int, int] = {}
    by_vars: dict[int, int] = {}
    for idx, cl in enumerate(cnf.clauses):
        for lit in cl:
            satisfied_by[lit] = satisfied_by.get(lit, 0) | 1 << idx
        vm = sum(1 << abs(lit) for lit in cl)
        by_vars[vm] = by_vars.get(vm, 0) | 1 << idx
    groups = [(clauses, vm) for vm, clauses in by_vars.items()]
    done: dict[tuple[int, int], int] = {}

    def refute(alive: int, assigned_mask: int):
        if not alive:
            raise ValueError("CNF is satisfiable; nothing to refute")
        free = ~assigned_mask
        falsified = 0
        open_groups: list[tuple[int, int]] = []
        for clauses, vm in groups:
            here = alive & clauses
            if here:
                unassigned = vm & free
                if unassigned:
                    open_groups.append((unassigned, here.bit_count()))
                else:
                    falsified |= here
        if falsified:
            clause = frozenset(cnf.clauses[(falsified & -falsified).bit_length() - 1])
            sid = builder.lookup(clause, assigned_mask)
            return sid if sid is not None else builder.add(clause)
        x = _branch_variable(open_groups)
        bit = 1 << x
        children = []
        for lit in (-x, x):
            key = (alive & ~satisfied_by.get(lit, 0), assigned_mask | bit)
            sid = done.get(key)
            if sid is None:
                sid = done[key] = yield refute(*key)
            children.append(sid)
        s0, s1 = children
        c0 = builder.steps[s0 - 1].clause
        c1 = builder.steps[s1 - 1].clause
        if x in c0 and -x in c1:
            clause = resolve(c0, c1, x)
            sid = builder.lookup(clause, assigned_mask)
            return sid if sid is not None else builder.add(clause, (s0, s1), x)
        return s0 if x not in c0 else s1

    root = run(refute((1 << len(cnf.clauses)) - 1, 0))
    return builder.trace(root)


# --- text format ------------------------------------------------------------
#
# one line per step:  <id> <lit>* 0 <antecedent-id>* 0
# axioms have an empty antecedent list


def trace_to_text(trace: ResolutionTrace) -> str:
    lines = []
    for step in trace.steps:
        lits = " ".join(str(lit) for lit in clause_sorted(step.clause))
        ants = "" if step.is_axiom else " ".join(str(a) for a in step.antecedents)
        lines.append(" ".join(x for x in (str(step.id), lits, "0", ants, "0") if x))
    return "\n".join(lines) + "\n"


def trace_from_text(text: str) -> ResolutionTrace:
    steps = []
    for ln in records(text):
        nums = ln.ints(start=0)
        sid = nums[0]
        if 0 not in nums[1:]:
            raise ln.error(f"step {sid}: clause not zero-terminated")
        z1 = nums.index(0, 1)
        clause = frozenset(nums[1:z1])
        rest = nums[z1 + 1:]
        if not rest or rest[-1] != 0:
            raise ln.error(f"step {sid}: missing terminator")
        ants = rest[:-1]
        if len(ants) not in (0, 2):
            raise ln.error(f"step {sid}: expected 0 or 2 antecedents, got {len(ants)}")
        steps.append(Step(sid, clause, (ants[0], ants[1]) if ants else None))
    return ResolutionTrace(tuple(steps))

