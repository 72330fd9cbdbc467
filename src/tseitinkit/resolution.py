"""Resolution refutation traces: checking, regularity, and DPLL generation.

A trace is a sequence of steps with strictly increasing ids.  Axiom steps
carry a clause of the input CNF; derived steps carry two antecedent ids
and must hold exactly a resolvent of them.  The pivot of a derived step
is not stored: `ResolutionTrace.pivots` derives it.  Literals are signed
DIMACS integers.

A step holds its clause as two masks over the trace's variable table
`ResolutionTrace.variables`, an increasing tuple of variable ids: bit i of
`pos` is set when the clause holds variables[i], bit i of `neg` when it
holds -variables[i].  No mask is wider than the table, so a variable id
like 10**12 costs one table entry, not a 10**12-bit int.  The parser
tables the variables its trace mentions, `dpll_refute` the variables
1..n of its CNF; `ResolutionTrace.literals` decodes a step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import getitem, or_
from typing import NamedTuple

from .cnf import Cnf
from .recursion import run
from .textformat import error, ints, lines_of


class Step(NamedTuple):
    id: int
    pos: int  # the clause's positive literals, as a mask over the variable table
    neg: int  # its negative literals
    antecedents: tuple[int, int] | None = None  # None for an axiom


@dataclass(frozen=True, eq=False)
class ResolutionTrace:
    steps: tuple[Step, ...]
    variables: tuple[int, ...]

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        """Equal ids, antecedents and clauses, whatever the two tables."""
        if not isinstance(other, ResolutionTrace):
            return NotImplemented
        if self.variables == other.variables:
            return self.steps == other.steps
        return len(self) == len(other) and all(
            (s.id, s.antecedents, self.literals(s)) == (t.id, t.antecedents, other.literals(t))
            for s, t in zip(self.steps, other.steps)
        )

    def literals(self, step: Step) -> list[int]:
        """The step's clause in text order: by variable, a positive
        literal before its negation."""
        out = []
        pos, neg = step.pos, step.neg
        mask = pos | neg
        while mask:
            low = mask & -mask
            mask ^= low
            v = self.variables[low.bit_length() - 1]
            if pos & low:
                out.append(v)
            if neg & low:
                out.append(-v)
        return out

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """One entry per step: for a derived step the bit of the variable
        on which its earlier antecedents resolve to its clause (there is
        at most one, see `_pivot`), else 0."""
        clauses: dict[int, Step] = {}
        out = []
        for step in self.steps:
            pivot = 0
            if step.antecedents is not None:
                a = clauses.get(step.antecedents[0])
                b = clauses.get(step.antecedents[1])
                if a is not None and b is not None:
                    pivot = _pivot(a, b, step)
            out.append(pivot)
            clauses[step.id] = step
        return tuple(out)


@dataclass
class CheckResult:
    ok: bool
    error: str | None = None
    failed_step: int | None = None
    tautology_steps: list[int] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _pivot(a: Step, b: Step, c: Step) -> int:
    """The bit of the variable on which a and b, in either order, resolve
    to c's clause, or 0.

    Resolving first (holding p, not -p) with second (holding -p, not p) on
    p gives exactly (a | b) - {p, -p}.  So c is a resolvent iff (a | b) ^ c
    is the same single bit in both polarities, exactly one antecedent holds
    p, exactly one holds -p, and neither holds both: p lies in a | b in
    both polarities, and the xor then leaves c = (a | b) - {p, -p}.  No
    other variable can qualify, so no candidate is tried.
    """
    bit = (a.pos | b.pos) ^ c.pos
    if bit != (a.neg | b.neg) ^ c.neg or bit & (bit - 1):
        return 0
    return bit & (a.pos ^ b.pos) & (a.neg ^ b.neg) & ~(a.pos & a.neg | b.pos & b.neg)


def _literal_bits(variables: tuple[int, ...]) -> dict[int, int]:
    """Each literal's bit in a clause's joint mask pos | neg << len(variables):
    v at its index i in the table, -v at len(variables) + i."""
    bits = {}
    for i, v in enumerate(variables):
        bits[v] = 1 << i
        bits[-v] = 1 << len(variables) + i
    return bits


def check_refutation(cnf: Cnf, trace: ResolutionTrace) -> CheckResult:
    """Validity check with a diagnostic naming the first failing step.

    Axioms must occur in the input CNF as literal sets; derived steps must
    equal a resolvent of their antecedents, which `trace.pivots` records;
    the final clause must be empty.  Tautological clauses are permitted
    but collected in the result.  The CNF's clauses are read over the
    trace's table; one with a variable outside it is no step's clause.
    """
    if not trace.steps:
        return CheckResult(False, "empty trace")
    bits = _literal_bits(trace.variables)
    width = len(trace.variables)
    inputs = {sum(bits[lit] for lit in cl) for cl in cnf.clauses if all(lit in bits for lit in cl)}
    seen: set[int] = set()
    result = CheckResult(True)
    last = None
    for (sid, pos, neg, antecedents), pivot in zip(trace.steps, trace.pivots):
        if last is not None and sid <= last:
            return CheckResult(False, f"step ids not strictly increasing at {sid}", sid)
        last = sid
        if antecedents is None:
            if pos | neg << width not in inputs:
                return CheckResult(False, f"step {sid}: axiom clause not in the input CNF", sid)
        else:
            if antecedents[0] not in seen or antecedents[1] not in seen:
                return CheckResult(False, f"step {sid}: antecedent does not precede the step", sid)
            if not pivot:
                return CheckResult(False, f"step {sid}: clause is not the resolvent", sid)
        if pos & neg:
            result.tautology_steps.append(sid)
        seen.add(sid)
    final = trace.steps[-1]
    if final.pos or final.neg:
        return CheckResult(False, "final clause is not empty", final.id)
    return result


def check_regularity(trace: ResolutionTrace) -> bool:
    """No directed path resolves twice on the same variable.

    With edges antecedent -> derived labeled by the derived step's pivot
    bit (from `trace.pivots`; a step without one adds no label), a repeat
    on some path exists iff some edge's label already occurs on a path
    continuing upward from its head.  `above[s]` accumulates exactly those
    labels: walking the steps from the last, a step's users have all
    passed on theirs when it is reached.  An antecedent that names its own
    step or a later one raises ValueError; `check_refutation` rejects such
    a trace as well.
    """
    position = {step.id: i for i, step in enumerate(trace.steps)}
    for i, step in enumerate(trace.steps):
        for a in step.antecedents or ():
            if position.get(a, -1) >= i:
                raise ValueError(f"step {step.id}: antecedent {a} is not an earlier step")
    above: dict[int, int] = {}
    for step, label in zip(reversed(trace.steps), reversed(trace.pivots)):
        here = above.get(step.id, 0)
        if here & label:
            return False
        if step.antecedents is not None:
            here |= label
            for a in step.antecedents:
                above[a] = above.get(a, 0) | here
    return True


def _branch_variable(widths: list[int], group_vars: list[int], group_clauses: list[int], alive: int, assigned_mask: int) -> int:
    """Most frequent variable among the shortest clauses, ties by id.

    Bit g of `widths[w]` is set iff group g is open with width w, so only
    the groups of the lowest nonzero mask are read: each gives its
    unassigned variables, `group_vars[g] & ~assigned_mask`, a count of
    its alive clauses, `alive & group_clauses[g]`; a variable counts once
    per clause.  One such group gives each of its variables the same
    count, so its lowest one is the answer.
    """
    for groups in widths:
        if groups:
            break
    if not groups & groups - 1:
        mask = group_vars[groups.bit_length() - 1] & ~assigned_mask
        return (mask & -mask).bit_length() - 1
    counts: dict[int, int] = {}
    while groups:
        low = groups & -groups
        groups ^= low
        g = low.bit_length() - 1
        mask = group_vars[g] & ~assigned_mask
        count = (alive & group_clauses[g]).bit_count()
        while mask:
            low = mask & -mask
            mask ^= low
            counts[low] = counts.get(low, 0) + count
    best = top = 0
    for b, count in counts.items():
        if count > top or count == top and b < best:
            best, top = b, count
    return best.bit_length() - 1


class _TraceBuilder:
    def __init__(self):
        self.steps: list[Step] = []
        self.by_clause: dict[tuple[int, int], list[int]] = {}
        self.pivots_below: list[int] = [0]  # by step id: the pivot bits of the derivation below it

    def step(self, clause: tuple[int, int], assigned_mask: int, antecedents=None, pivot: int = 0) -> int:
        """The first step with this clause whose pivots avoid the variables
        assigned on the current path, so reuse keeps the DAG regular; else
        a new step, an axiom unless it has antecedents and their pivot."""
        sids = self.by_clause.setdefault(clause, [])
        for sid in sids:
            if not self.pivots_below[sid] & assigned_mask:
                return sid
        sid = len(self.steps) + 1
        self.steps.append(tuple.__new__(Step, (sid, *clause, antecedents)))  # without the Python-level Step.__new__
        below = self.pivots_below
        below.append(0 if antecedents is None else 1 << pivot | below[antecedents[0]] | below[antecedents[1]])
        sids.append(sid)
        return sid

    def trace(self, root: int, variables: tuple[int, ...]) -> ResolutionTrace:
        """The steps that `root` reaches, in id order, ending at `root`."""
        wanted = {root}
        kept = []
        for step in reversed(self.steps[:root]):
            if step.id in wanted:
                kept.append(step)
                wanted.update(step.antecedents or ())
        return ResolutionTrace(tuple(reversed(kept)), variables)


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
    variable x is assigned.  An alive clause holds no true literal, so it
    is open on exactly its unassigned variables; the first alive clause
    with none is the falsified one.

    Clauses are grouped by variable set, once per CNF: group g holds the
    clauses `group_clauses[g]` on the variables `group_vars[g]` (a Tseitin
    CNF has 2^(d-1) per vertex), and `holding[x]` lists the groups whose
    set holds x.  A group's alive clauses, `alive & group_clauses[g]`,
    share its unassigned variables, `group_vars[g] & ~assigned_mask`, so
    they are all open or all falsified, and its width and clause count
    are read off the state.  The one fact a state keeps is `widths`: bit
    g of widths[w] is set iff group g has alive clauses and w > 0
    unassigned variables.  A child on x copies it and rewrites only the
    groups in `holding[x]`, as `alive` loses only clauses holding x or -x
    and only sets holding x lose a variable.  Such a group with alive
    clauses had x unassigned: it moves from width w to w - 1 if it keeps
    an alive clause, which at w = 1 is falsified.  The parent had none, so
    the lowest bit of their union is the first falsified clause.
    `_branch_variable` reads the groups of the lowest nonzero mask, exactly
    the open groups of the minimum width, so each variable's count and the
    tie by id come out as they would clause by clause.

    A child with a falsified clause is a leaf and is resolved where it is
    met, with no generator and no cache entry: `builder.step` returns the
    first step in `by_clause[clause]` whose pivots avoid the child's
    assignment, else adds a new axiom step.  Every other state is searched
    once, and a later visit takes the step the first returned from `done`.
    That step stays regular there: its pivots were branched on below the
    state, on variables the state marks unassigned.  A second search would
    add no step and end at the same step, since every `builder.step` on
    its way finds what the first one stored; the cache changes the running
    time, not the trace.  Leaving leaves out of `done` keeps the trace
    too: `by_clause[clause]` only grows at its end, the steps before the
    one the first visit returned still fail the same assignment, and that
    step still qualifies, so a revisit returns the same step.  A state
    never recurs below itself, as `assigned_mask` grows along every path.

    Steps hold their clauses over the table 1..n, so variable x is clause
    bit x - 1.  Every clause met is falsified by the path's assignment,
    so none is a tautology: the resolvent on x is the antecedents' union
    with x's bit cleared in both masks.

    The trace ends at the root's step and keeps the steps it reaches: a
    root that passes its first child's step through leaves the second
    child's steps unused.
    """
    builder = _TraceBuilder()
    satisfied_by: dict[int, int] = {}
    by_vars: dict[int, int] = {}
    axioms = []
    for idx, cl in enumerate(cnf.clauses):
        for lit in cl:
            satisfied_by[lit] = satisfied_by.get(lit, 0) | 1 << idx
        vm = sum(1 << abs(lit) for lit in cl)
        by_vars[vm] = by_vars.get(vm, 0) | 1 << idx
        axioms.append((sum(1 << lit - 1 for lit in cl if lit > 0), sum(1 << -lit - 1 for lit in cl if lit < 0)))
    group_vars, group_clauses = list(by_vars), list(by_vars.values())
    holding: list[list[int]] = [[] for _ in range(cnf.num_vars + 1)]
    widths = [0] * (1 + max(map(len, cnf.clauses), default=0))  # the root state's
    falsified = by_vars.get(0, 0)  # the empty clause: then the root is a leaf, and `widths` is never read
    for g, vm in enumerate(group_vars):
        widths[vm.bit_count()] |= 1 << g
        while vm:
            low = vm & -vm
            vm ^= low
            holding[low.bit_length() - 1].append(g)
    done: dict[tuple[int, int], int] = {}

    def refute(alive: int, assigned_mask: int, widths: list[int]):
        if not alive:
            raise ValueError("CNF is satisfiable; nothing to refute")
        x = _branch_variable(widths, group_vars, group_clauses, alive, assigned_mask)
        bit = 1 << x
        below_mask = assigned_mask | bit
        children = []
        for lit in (-x, x):
            child = alive & ~satisfied_by.get(lit, 0)
            narrower = widths.copy()
            falsified = 0
            for g in holding[x]:
                clauses = group_clauses[g]
                if not alive & clauses:
                    continue  # the group has no alive clause left
                width = (group_vars[g] & ~assigned_mask).bit_count()
                narrower[width] ^= 1 << g
                here = child & clauses
                if here and width == 1:
                    falsified |= here  # x was the set's last unassigned variable
                elif here:
                    narrower[width - 1] |= 1 << g
            if falsified:
                sid = builder.step(axioms[(falsified & -falsified).bit_length() - 1], below_mask)
            else:
                key = (child, below_mask)
                sid = done.get(key)
                if sid is None:
                    sid = done[key] = yield child, below_mask, narrower
            children.append(sid)
        s0, s1 = children
        _, pos0, neg0, _ = builder.steps[s0 - 1]
        _, pos1, neg1, _ = builder.steps[s1 - 1]
        var = bit >> 1
        if pos0 & var and neg1 & var:
            return builder.step(((pos0 | pos1) & ~var, (neg0 | neg1) & ~var), assigned_mask, (s0, s1), x)
        return s1 if pos0 & var else s0

    if falsified:
        root = builder.step(axioms[(falsified & -falsified).bit_length() - 1], 0)
    else:
        root = run(refute, (1 << len(cnf.clauses)) - 1, 0, widths)
    return builder.trace(root, tuple(range(1, cnf.num_vars + 1)))


# --- text format ------------------------------------------------------------
#
# one line per step:  <id> <lit>* 0 <antecedent-id>* 0
# axioms have an empty antecedent list


class _Fragments(dict):
    """The text of eight consecutive table variables in a clause, keyed by
    (positive byte, negative byte) of its masks: each literal the bytes
    hold, in text order, followed by a space.  Built when first asked."""

    def __init__(self, variables: tuple[int, ...]):
        super().__init__({(0, 0): ""})
        self.literals = [(f"{v} ", f"-{v} ") for v in variables]  # per bit: the positive and the negative literal

    def __missing__(self, key: tuple[int, int]) -> str:
        pos, neg = key
        text = self[key] = "".join(
            (p if pos >> j & 1 else "") + (n if neg >> j & 1 else "") for j, (p, n) in enumerate(self.literals)
        )
        return text


def trace_to_text(trace: ResolutionTrace) -> str:
    """A clause is the join of one fragment per byte of its masks, from its
    lowest to its highest nonzero byte (`_Fragments`), so no literal is
    converted to a string twice.  A mask bit outside the table is an error."""
    width = len(trace.variables)
    fragments = [_Fragments(trace.variables[k:k + 8]) for k in range(0, width, 8)]
    lines = []
    for sid, pos, neg, antecedents in trace.steps:
        either = pos | neg
        if either >> width:
            raise ValueError(f"step {sid}: a literal outside the variable table")
        start = (either & -either).bit_length() - 1 >> 3
        stop = either.bit_length() + 7 >> 3
        clause = "".join(map(getitem, fragments[start:stop], zip(
            (pos >> 8 * start).to_bytes(stop - start, "little"), (neg >> 8 * start).to_bytes(stop - start, "little"),
        ))) if either else ""
        if antecedents is None:
            lines.append(f"{sid} {clause}0 0")
        else:
            lines.append(f"{sid} {clause}0 {antecedents[0]} {antecedents[1]} 0")
    return "\n".join(lines) + "\n"


def _step_fields(lines: list[str], i: int, fields: list[str], index: dict[str, int], values: list[int], literals: list[int]):
    """(id, index of the clause's terminating 0, antecedents) of trace line
    i, every check made in order; tables its literal tokens new to `index`
    (token -> position in `values`, their ints) and appends their positions
    to `literals`."""
    nums = ints(lines, i, fields)
    sid = nums[0]
    try:
        end = nums.index(0, 1)
    except ValueError:
        raise error(lines, i, f"step {sid}: clause not zero-terminated") from None
    rest = len(nums) - end
    if rest == 1 or nums[-1] != 0:
        raise error(lines, i, f"step {sid}: missing terminator")
    if rest not in (2, 4):
        raise error(lines, i, f"step {sid}: expected 0 or 2 antecedents, got {rest - 2}")
    for token, v in zip(fields[1:end], nums[1:end]):
        if token not in index:
            index[token] = len(values)
            values.append(v)
    literals += map(index.__getitem__, fields[1:end])
    return sid, end, (nums[end + 1], nums[end + 2]) if rest == 4 else None


def trace_from_text(text: str) -> ResolutionTrace:
    """One pass over the lines checks each step line, keeps its id, its
    literal count and its antecedents, and appends its literals to one
    list, each as the position of its token among the distinct literal
    tokens (each converted to an int once).  The table is then the sorted
    set of variables those tokens name; each token gets its bit in the
    joint mask pos | neg << len(variables), and a step's mask is the sum
    of its literals' bits.  No per-line container outlives its line but
    the step it becomes."""
    lines, rows = lines_of(text)
    ids, counts, antecedents = [], [], []
    literals: list[int] = []  # every step's literals in turn, as positions in `values`
    index: dict[str, int] = {}  # literal token -> its position in `values`
    values: list[int] = []  # the distinct literal tokens' (nonzero) ints
    position = index.__getitem__
    for i, fields in rows:
        if not fields or fields[0][0] == "#":
            continue
        start = len(literals)
        try:  # the usual line: "0" terminators, literal tokens seen before
            end = fields.index("0", 1)
            rest = len(fields) - end
            if fields[-1] != "0" or rest != 2 and rest != 4:
                raise ValueError
            sid = int(fields[0])
            ante = (int(fields[end + 1]), int(fields[end + 2])) if rest == 4 else None
            literals += map(position, fields[1:end])
        except (ValueError, KeyError):
            del literals[start:]
            sid, end, ante = _step_fields(lines, i, fields, index, values, literals)
        ids.append(sid)
        counts.append(end - 1)
        antecedents.append(ante)
    variables = tuple(sorted({abs(v) for v in values}))
    bits = _literal_bits(variables)
    bit = list(map(bits.__getitem__, values)).__getitem__
    width = len(variables)
    low = (1 << width) - 1
    steps = []
    new = tuple.__new__  # builds a Step without the Python-level Step.__new__
    stop = 0
    for sid, count, ante in zip(ids, counts, antecedents):
        start = stop
        stop += count
        joint = sum(map(bit, literals[start:stop]))
        if joint.bit_count() != count:  # a repeated literal was added twice: or the bits instead
            joint = reduce(or_, map(bit, literals[start:stop]))
        steps.append(new(Step, (sid, joint & low, joint >> width, ante)))
    return ResolutionTrace(tuple(steps), variables)
