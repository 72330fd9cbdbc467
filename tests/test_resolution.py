import hashlib
import itertools
import random
import re
import zlib
from dataclasses import dataclass

import pytest

from tseitinkit import families as fam, resolution
from tseitinkit.cnf import Cnf
from tseitinkit.resolution import (
    CheckResult,
    ResolutionTrace,
    Step,
    _pivot,
    check_refutation,
    check_regularity,
    dpll_refute,
    trace_from_text,
    trace_to_text,
)
from tseitinkit.tseitin import TseitinFormula, to_cnf, unit_charge

from lemmas import clause, full_scan_branch_variable, records, resolve, set_pivot, trace_of


UNIT_CNF = Cnf(1, (frozenset({1}), frozenset({-1})))
UNIT_ROWS = ((1, {1}, None), (2, {-1}, None), (3, (), (1, 2)))
UNIT_TRACE = trace_of(UNIT_ROWS)


def pivot_variables(trace: ResolutionTrace) -> tuple[int | None, ...]:
    """`trace.pivots` as variable ids, None where a step has no pivot."""
    return tuple(trace.variables[p.bit_length() - 1] if p else None for p in trace.pivots)


def family_cnfs():
    graphs = [
        ("C3", fam.cycle(3)), ("C4", fam.cycle(4)), ("C5", fam.cycle(5)), ("C6", fam.cycle(6)),
        ("P3", fam.path(3)), ("K4", fam.complete(4)), ("W4", fam.wheel(4)),
        ("grid2x3", fam.grid(2, 3)), ("bowtie", fam.bowtie()),
    ]
    return [(name, to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))) for name, g in graphs]


class TestChecker:
    def test_unit_trace_valid(self):
        assert check_refutation(UNIT_CNF, UNIT_TRACE)
        assert check_regularity(UNIT_TRACE)
        assert pivot_variables(UNIT_TRACE) == (None, None, 1)

    def test_empty_trace_rejected(self):
        result = check_refutation(UNIT_CNF, ResolutionTrace((), (1,)))
        assert not result and result.error == "empty trace"

    def test_no_resolvable_pivot_rejected(self):
        # {1} and {2} clash on no variable
        bad = trace_of(((1, {1}, None), (2, {2}, None), (3, (), (1, 2))))
        assert pivot_variables(bad) == (None, None, None)
        result = check_refutation(Cnf(2, (frozenset({1}), frozenset({2}))), bad)
        assert not result and result.failed_step == 3 and "not the resolvent" in result.error

    def test_smallest_pivot_wins(self):
        # {1, 2} and {-1, -2} resolve on 1 to {2, -2} and on 2 to {1, -1}
        steps = ((1, {1, 2}, None), (2, {-1, -2}, None))
        assert pivot_variables(trace_of(steps + ((3, {2, -2}, (1, 2)),)))[2] == 1
        assert pivot_variables(trace_of(steps + ((3, {1, -1}, (2, 1)),)))[2] == 2

    def test_final_clause_must_be_empty(self):
        bad = trace_of(UNIT_ROWS[:2] + ((3, {1}, None),))
        result = check_refutation(UNIT_CNF, bad)
        assert not result and "empty" in result.error

    def test_axiom_must_be_an_input_clause(self):
        bad = trace_of(((1, {1, -2}, None),) + UNIT_ROWS[1:])
        result = check_refutation(Cnf(2, UNIT_CNF.clauses), bad)
        assert not result and result.failed_step == 1

    def test_wrong_resolvent_rejected(self):
        bad = trace_of((
            (1, {1, 2}, None),
            (2, {-1}, None),
            (3, (), (1, 2)),
        ))
        cnf = Cnf(2, (frozenset({1, 2}), frozenset({-1})))
        result = check_refutation(cnf, bad)
        assert not result and result.failed_step == 3

    def test_antecedent_must_precede(self):
        bad = trace_of((
            (1, {1}, None),
            (3, (), (1, 5)),
        ))
        assert not check_refutation(UNIT_CNF, bad)

    def test_cnf_clauses_outside_the_trace_table(self):
        # the trace tables variables (3, 7) only; the CNF's other clauses
        # have a variable outside it and cannot be any step's clause
        cnf = Cnf(7, (frozenset({1, 2}), frozenset({3, 7}), frozenset({-3}), frozenset({-7}), frozenset({5})))
        trace = trace_from_text("1 3 7 0 0\n2 -3 0 0\n3 7 0 1 2 0\n4 -7 0 0\n5 0 3 4 0\n")
        assert trace.variables == (3, 7)
        assert check_refutation(cnf, trace).ok
        bad = trace_from_text("1 5 0 0\n")
        assert bad.variables == (5,)
        assert check_refutation(Cnf(7, cnf.clauses[:4]), bad).error == "step 1: axiom clause not in the input CNF"

    def test_tautology_flagged_but_permitted(self):
        cnf = Cnf(2, (frozenset({1, 2}), frozenset({-1, -2}), frozenset({1, -2}), frozenset({-1, 2})))
        steps = (
            (1, {1, 2}, None),
            (2, {-1, -2}, None),
            (3, {2, -2}, (1, 2)),
            (4, {1, -2}, None),
            (5, {-1, 2}, None),
            (6, {-2, 2}, (4, 5)),
            (7, {2}, (1, 5)),
            (8, {-2}, (4, 2)),
            (9, (), (7, 8)),
        )
        result = check_refutation(cnf, trace_of(steps))
        assert result.ok
        assert result.tautology_steps == [3, 6]


class TestRegularity:
    def test_hand_built_violation(self):
        # path 1 -> 3 -> 5 -> 7 -> 10 carries labels x, y, x, y
        x, y = 1, 2
        cnf = Cnf(2, (frozenset({x, y}), frozenset({-x, y}), frozenset({x, -y}), frozenset({-x, -y})))
        steps = (
            (1, {x, y}, None),
            (2, {-x, y}, None),
            (3, {y}, (1, 2)),
            (4, {x, -y}, None),
            (5, {x}, (3, 4)),
            (7, {y}, (5, 2)),
            (8, {-x, -y}, None),
            (9, {-y}, (4, 8)),
            (10, (), (7, 9)),
        )
        trace = trace_of(steps)
        assert pivot_variables(trace) == (None, None, x, None, y, x, None, x, y)
        assert check_refutation(cnf, trace).ok
        assert not check_regularity(trace)

    def test_regular_four_clause_refutation(self):
        x, y = 1, 2
        cnf = Cnf(2, (frozenset({x, y}), frozenset({-x, y}), frozenset({x, -y}), frozenset({-x, -y})))
        steps = (
            (1, {x, y}, None),
            (2, {-x, y}, None),
            (3, {y}, (1, 2)),
            (4, {x, -y}, None),
            (5, {-x, -y}, None),
            (6, {-y}, (4, 5)),
            (7, (), (3, 6)),
        )
        trace = trace_of(steps)
        assert pivot_variables(trace) == (None, None, x, None, None, x, y)
        assert check_refutation(cnf, trace).ok
        assert check_regularity(trace)

    @pytest.mark.parametrize("later", [3, 2], ids=["later_step", "own_step"])
    def test_antecedent_not_earlier_is_a_value_error(self, later):
        steps = (
            (1, {1}, None),
            (2, (), (1, later)),
            (3, {-1}, None),
        )
        with pytest.raises(ValueError, match=f"step 2: antecedent {later} is not an earlier step"):
            check_regularity(trace_of(steps))


class TestDpll:
    def test_unit(self):
        trace = dpll_refute(UNIT_CNF)
        assert len(trace) == 3
        assert check_refutation(UNIT_CNF, trace).ok

    def test_satisfiable_rejected(self):
        with pytest.raises(ValueError):
            dpll_refute(Cnf(2, (frozenset({1, 2}),)))

    def test_c3_bound(self):
        cnf = to_cnf(TseitinFormula(fam.cycle(3), (1, 0, 0)))
        trace = dpll_refute(cnf)
        assert len(trace) <= 13
        assert check_refutation(cnf, trace).ok
        assert check_regularity(trace)

    def test_cycle_regression_bound(self):
        for n in range(4, 9):
            cnf = to_cnf(TseitinFormula(fam.cycle(n), unit_charge(n, 0)))
            trace = dpll_refute(cnf)
            assert len(trace) <= 30 * n

    def test_deeper_than_recursion_limit(self):
        # on a path the search assigns one edge after another, 1099 deep
        n = 1100
        cnf = to_cnf(TseitinFormula(fam.path(n), unit_charge(n, 0)))
        trace = dpll_refute(cnf)
        assert check_refutation(cnf, trace).ok
        assert check_regularity(trace)

    def test_root_passing_its_first_child_through_ends_the_trace(self):
        # the root branches on 2 (say) and passes its first child's step
        # through; the second child's axioms used to follow the empty clause
        rows = "-5 -7 / -3 -5 / 2 -4 / -3 5 / -2 4 / -1 2 / 2 6 / 3 5 / 3 7"
        cnf = Cnf(7, tuple(frozenset(map(int, row.split())) for row in rows.split(" / ")))
        trace = dpll_refute(cnf)
        result = check_refutation(cnf, trace)
        assert result.ok, result.error
        assert check_regularity(trace)
        assert clause(trace, trace.steps[-1]) == frozenset()

    @pytest.mark.parametrize("rows,cols,steps", [(3, 12, 693), (5, 5, 1537)])
    def test_grids_with_many_repeated_subformulas(self, rows, cols, steps):
        # the tree search without formula caching did not finish grid 3x12
        # in minutes; with it both take well under a second
        cnf = to_cnf(TseitinFormula(fam.grid(rows, cols), unit_charge(rows * cols, 0)))
        trace = dpll_refute(cnf)
        assert len(trace) == steps
        assert check_refutation(cnf, trace).ok
        assert check_regularity(trace)

    @pytest.mark.parametrize("name,cnf", family_cnfs(), ids=[n for n, _ in family_cnfs()])
    def test_family_traces_valid_and_regular(self, name, cnf):
        trace = dpll_refute(cnf)
        result = check_refutation(cnf, trace)
        assert result.ok, result.error
        assert check_regularity(trace)
        assert not result.tautology_steps


# --- reference: the tree search as first written -----------------------------
#
# Every search node rescans the whole CNF for the clauses its assignment leaves
# open, and no search state is cached.  The branching rule, read off clause
# lists where the library reads bitmasks, and the step store are frozen copies
# of the library's, so the comparison pins the trace itself.


def _reference_branch_variable(restricted) -> int:
    width = min(len(keep) for _, keep in restricted)
    counts: dict[int, int] = {}
    for _, keep in restricted:
        if len(keep) == width:
            for lit in keep:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
    return min(counts, key=lambda v: (-counts[v], v))


class _ReferenceTraceBuilder:
    def __init__(self):
        self.steps: list[tuple[int, frozenset, tuple[int, int] | None]] = []  # (id, clause, antecedents)
        self.by_clause: dict[frozenset, list[int]] = {}
        self.pivots_below: dict[int, int] = {}

    def lookup(self, clause: frozenset, assigned_mask: int) -> int | None:
        for sid in self.by_clause.get(clause, ()):
            if not self.pivots_below[sid] & assigned_mask:
                return sid
        return None

    def add(self, clause, antecedents=None, pivot=None) -> int:
        sid = len(self.steps) + 1
        self.steps.append((sid, clause, antecedents))
        below = 0
        if antecedents is not None:
            below = (1 << pivot) | self.pivots_below[antecedents[0]] | self.pivots_below[antecedents[1]]
        self.pivots_below[sid] = below
        self.by_clause.setdefault(clause, []).append(sid)
        return sid


def _end_at_root(steps: list[tuple], root: int) -> ResolutionTrace:
    """The steps `root` reaches by a depth-first walk, in id order."""
    by_id = {step[0]: step for step in steps}
    reached, todo = set(), [root]
    while todo:
        sid = todo.pop()
        if sid not in reached:
            reached.add(sid)
            todo.extend(by_id[sid][2] or ())
    return trace_of([step for step in steps if step[0] in reached])


def reference_dpll_refute(cnf: Cnf) -> ResolutionTrace:
    builder = _ReferenceTraceBuilder()

    def restricted(assignment):
        out = []
        for idx, cl in enumerate(cnf.clauses):
            keep = []
            satisfied = False
            for lit in cl:
                v = abs(lit)
                if v in assignment:
                    if (lit > 0) == bool(assignment[v]):
                        satisfied = True
                        break
                else:
                    keep.append(lit)
            if not satisfied:
                out.append((idx, keep))
        return out

    def refute(assignment, assigned_mask):
        open_clauses = restricted(assignment)
        for idx, keep in open_clauses:
            if not keep:
                clause = frozenset(cnf.clauses[idx])
                sid = builder.lookup(clause, assigned_mask)
                return sid if sid is not None else builder.add(clause)
        if not open_clauses:
            raise ValueError("CNF is satisfiable; nothing to refute")
        x = _reference_branch_variable(open_clauses)
        bit = 1 << x
        s0 = refute({**assignment, x: 0}, assigned_mask | bit)
        s1 = refute({**assignment, x: 1}, assigned_mask | bit)
        c0 = builder.steps[s0 - 1][1]
        c1 = builder.steps[s1 - 1][1]
        if x in c0 and -x in c1:
            clause = resolve(c0, c1, x)
            sid = builder.lookup(clause, assigned_mask)
            return sid if sid is not None else builder.add(clause, (s0, s1), x)
        return s0 if x not in c0 else s1

    return _end_at_root(builder.steps, refute({}, 0))


def _unsatisfiable(cnf: Cnf) -> bool:
    """Truth tables as bitsets over the 2^n assignments."""
    size = 1 << cnf.num_vars
    everything = (1 << size) - 1
    true_at = [0] + [sum(1 << a for a in range(size) if a >> (v - 1) & 1) for v in range(1, cnf.num_vars + 1)]
    table = everything
    for cl in cnf.clauses:
        sat = 0
        for lit in cl:
            sat |= true_at[lit] if lit > 0 else everything & ~true_at[-lit]
        table &= sat
    return not table


def random_unsatisfiable_cnfs(count: int) -> list[tuple[int, Cnf]]:
    """The first `count` seeds whose random CNF (3 to 11 variables, clauses
    of width 2 to 4) is unsatisfiable, with their CNFs."""
    out = []
    seed = 0
    while len(out) < count:
        rng = random.Random(seed)
        n = rng.randint(3, 11)
        clauses = []
        for _ in range(rng.randint(n, 6 * n)):
            width = rng.randint(2, min(4, n))
            clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)))
        cnf = Cnf(n, tuple(clauses))
        if _unsatisfiable(cnf):
            out.append((seed, cnf))
        seed += 1
    return out


def _shared_variable_sets(cnf: Cnf) -> bool:
    """Two variable sets of one width hold different numbers of clauses,
    and some set's clauses are not consecutive in the clause order."""
    by_vars: dict[frozenset, list[int]] = {}
    for idx, cl in enumerate(cnf.clauses):
        by_vars.setdefault(frozenset(abs(lit) for lit in cl), []).append(idx)
    sizes: dict[int, set[int]] = {}
    for vs, idxs in by_vars.items():
        sizes.setdefault(len(vs), set()).add(len(idxs))
    unequal = any(len(counts) > 1 for counts in sizes.values())
    interleaved = any(idxs[-1] - idxs[0] >= len(idxs) for idxs in by_vars.values())
    return unequal and interleaved


def grouped_unsatisfiable_cnfs(count: int) -> list[tuple[int, Cnf]]:
    """The first `count` seeds whose random CNF is unsatisfiable and
    `_shared_variable_sets`: n to 2n variable sets of width 2 or 3 over
    n = 3 to 8 variables, each with some but not all of its sign patterns,
    shuffled."""
    out = []
    seed = 0
    while len(out) < count:
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        clauses = []
        for _ in range(rng.randint(n, 2 * n)):
            vs = rng.sample(range(1, n + 1), rng.randint(2, 3))
            for signs in rng.sample(range(1 << len(vs)), rng.randint(1, (1 << len(vs)) - 1)):
                clauses.append(frozenset(-v if signs >> i & 1 else v for i, v in enumerate(vs)))
        rng.shuffle(clauses)
        cnf = Cnf(n, tuple(clauses))
        if _shared_variable_sets(cnf) and _unsatisfiable(cnf):
            out.append((seed, cnf))
        seed += 1
    return out


class TestAgainstReference:
    def check(self, g):
        cnf = to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))
        assert trace_to_text(dpll_refute(cnf)) == trace_to_text(reference_dpll_refute(cnf))

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        self.check(g)

    @pytest.mark.parametrize("g", [fam.random_regular(16, 3, 1), fam.grid(4, 5)], ids=["rr16", "grid4x5"])
    def test_benchmark_graphs(self, g):
        self.check(g)

    # Past the reference's reach a trace is pinned by its line count and
    # the sha256 prefix of its text.
    @pytest.mark.parametrize("g,lines,digest", [
        (fam.path(1100), 2199, "97b74acd584b9324"),
        (fam.random_regular(40, 3, 1), 5467, "d17bb29b1db36f69"),
        (fam.complete(6), 2159, "4c6d622cd10abbcf"),
        (fam.wheel(8), 1179, "d77801492576f7b8"),
        (fam.grid(3, 12), 693, "fa25c4f5ab9f084d"),
        (fam.grid(6, 6), 4265, "f4f4b694e5d363e4"),
        (fam.grid(3, 64), 3813, "ba099579d1f6e63e"),
    ], ids=["path1100", "rr40", "K6", "W8", "grid3x12", "grid6x6", "grid3x64"])
    def test_pinned_traces(self, g, lines, digest):
        cnf = to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))
        text = trace_to_text(dpll_refute(cnf))
        assert (text.count("\n"), hashlib.sha256(text.encode()).hexdigest()[:16]) == (lines, digest)

    def test_random_unsatisfiable_cnfs(self):
        cases = random_unsatisfiable_cnfs(240)
        dropped = 0
        for seed, cnf in cases:
            trace = dpll_refute(cnf)
            assert trace_to_text(trace) == trace_to_text(reference_dpll_refute(cnf)), f"seed {seed}"
            assert check_refutation(cnf, trace).ok, f"seed {seed}"
            assert check_regularity(trace), f"seed {seed}"
            dropped += trace.steps[-1].id > len(trace)
        assert dropped  # some roots leave steps unused, as the end-at-root fix expects

    def test_grouped_unsatisfiable_cnfs(self):
        # the library scans clauses one variable set at a time; a Tseitin
        # CNF has the same number of alive clauses in every open group of
        # the shortest width, so only CNFs like these show a wrong count or
        # a wrong pick among falsified clauses
        for seed, cnf in grouped_unsatisfiable_cnfs(240):
            assert trace_to_text(dpll_refute(cnf)) == trace_to_text(reference_dpll_refute(cnf)), f"seed {seed}"

    def test_same_rejection(self):
        # the second CNF is satisfiable only below the root: the branch 1 = 0
        # is refuted, and below 1 = 1 the branch 3 = 1 satisfies every clause
        for cnf in (Cnf(2, (frozenset({1, 2}),)), Cnf(3, tuple(map(frozenset, [(1, 2), (1, -2), (-1, 3)])))):
            for refute in (dpll_refute, reference_dpll_refute):
                with pytest.raises(ValueError, match="satisfiable"):
                    refute(cnf)

    # Shapes the width masks and the inline leaves must get right.
    @pytest.mark.parametrize("clauses", [
        # at 1 = 0, 2 = 1 the branch 3 = 1 falsifies clause 2 (on {2, 3}) and
        # clause 4 (on {1, 3}): the set {1, 3} occurs first, the lowest
        # clause index lies on {2, 3}
        [(-1, 3), (-1, 2), (-2, -3), (-2, 3), (1, -3), (1, 2)],
        # the empty clause: the root is a leaf, and the trace is its axiom
        [(1, 2), (), (-1,), (-2,)],
        # a unit clause at the root, where the search branches first
        [(1, 2), (-1,), (1, -2), (2, 3)],
        # variable 1 lies in five variable sets, so a branch on it
        # rewrites five groups
        [(1, 2), (-1, 2), (1, 3), (-1, 3), (1, 4), (-1, 4), (1, 5), (-1, 5), (-2, -3, -4, -5), (1, -2, 6)],
    ], ids=["two-sets-at-once", "empty-clause", "unit-at-root", "variable-in-many-sets"])
    def test_summary_shapes(self, clauses):
        cnf = Cnf(max(abs(lit) for cl in clauses for lit in cl), tuple(map(frozenset, clauses)))
        trace = dpll_refute(cnf)
        assert trace_to_text(trace) == trace_to_text(reference_dpll_refute(cnf))
        assert check_refutation(cnf, trace).ok and check_regularity(trace)


class TestBranchChoice:
    """Every search state's width masks and branch variable, against a scan
    of every group of the CNF for the open ones: those with alive clauses
    and unassigned variables."""

    @pytest.fixture
    def states(self, monkeypatch):
        seen = []
        chosen = resolution._branch_variable

        def checked(widths, group_vars, group_clauses, alive, assigned_mask):
            exact = [0] * len(widths)
            open_groups = []
            for g, (variables, clauses) in enumerate(zip(group_vars, group_clauses)):
                free, here = variables & ~assigned_mask, alive & clauses
                if free and here:
                    exact[free.bit_count()] |= 1 << g
                    open_groups.append((free.bit_count(), free, here.bit_count()))
            assert widths == exact
            x = chosen(widths, group_vars, group_clauses, alive, assigned_mask)
            assert x == full_scan_branch_variable(open_groups)
            seen.append((sum(map(bool, widths)), group_vars, group_clauses))
            return x

        monkeypatch.setattr(resolution, "_branch_variable", checked)
        return seen

    @staticmethod
    def assert_grouped_by_variable_set(cnf: Cnf, group_vars: list[int], group_clauses: list[int]):
        assert len(set(group_vars)) == len(group_vars)
        for i, cl in enumerate(cnf.clauses):
            owners = [g for g, clauses in enumerate(group_clauses) if clauses >> i & 1]
            assert owners == [group_vars.index(sum(1 << abs(lit) for lit in cl))]

    @pytest.mark.parametrize("g", [fam.random_regular(16, 3, 1), fam.grid(4, 5), fam.complete(6)], ids=["rr16", "grid4x5", "K6"])
    def test_tseitin_cnfs(self, states, g):
        cnf = to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))
        dpll_refute(cnf)
        assert states
        self.assert_grouped_by_variable_set(cnf, *states[-1][1:])

    def test_random_unsatisfiable_cnfs(self, states):
        for _, cnf in random_unsatisfiable_cnfs(200) + grouped_unsatisfiable_cnfs(60):
            before = len(states)
            dpll_refute(cnf)
            if len(states) > before:  # the root was searched
                self.assert_grouped_by_variable_set(cnf, *states[-1][1:])
        assert max(kinds for kinds, _, _ in states) > 1  # some states hold open groups of several widths


class TestTraceBuilderStep:
    """`_TraceBuilder.step` reuses the first step with the clause whose
    pivots avoid the assignment, else appends a new one."""

    def test_reuse_or_add(self):
        b = resolution._TraceBuilder()
        # variable x is clause bit x - 1 and assignment bit x
        x1_or_x2, not_x1_or_x2 = b.step((0b11, 0), 0), b.step((0b10, 0b01), 0)
        assert b.step((0b11, 0), 1 << 1 | 1 << 2) == x1_or_x2  # an axiom has no pivots
        x2 = b.step((0b10, 0), 0, (x1_or_x2, not_x1_or_x2), 1)
        not_x2 = b.step((0, 0b10), 0)
        empty = b.step((0, 0), 0, (x2, not_x2), 2)
        assert (x2, not_x2, empty) == (3, 4, 5) and b.pivots_below[empty] == 1 << 1 | 1 << 2
        # a path that assigned variable 1, resolved on below step 5, skips
        # it and gets a new step
        again = b.step((0, 0), 1 << 1)
        assert again == 6 and b.steps[-1] == Step(6, 0, 0, None) and b.pivots_below[again] == 0
        assert b.step((0, 0), 1 << 1) == again  # step 5 skipped, step 6 the first that qualifies
        assert b.step((0, 0), 1 << 3) == empty  # both qualify: the first
        assert b.by_clause[(0, 0)] == [empty, again] and len(b.steps) == 6

    # a random 3-CNF (seed 17459 of a search over 37904 unsatisfiable ones,
    # 10 to 22 variables, cut down clause by clause): a step whose own pivot
    # the path has not assigned, but one below it has, comes up for reuse;
    # reusing it, as a guard on own pivots alone would, makes the trace
    # irregular (80 steps instead of 85)
    DEEP_PIVOT_CNF = Cnf(15, tuple(frozenset(c) for c in (
        (3, -7, -12), (-2, -6, -7), (-9, 10, -14), (6, 10, 11), (2, -7, 10), (4, -7, -11), (7, -8, 13),
        (-4, -5, -15), (3, -11, -13), (1, -2, 11), (-6, -12, -15), (-3, 9, -12), (-3, 5, 8), (-4, 6, -12),
        (6, -9, 14), (-1, -7, 12), (-3, -9, -10), (-8, -9, 11), (5, -7, 14), (2, 10, -11), (-2, -11, 12),
        (-1, 3, 5), (9, -10, -14), (3, 11, 14), (-5, 7, -14), (4, -5, 14), (5, 7, -14), (-1, 8, -10),
        (-6, 14, 15), (-3, 6, 12), (-7, 9, 15), (1, 8, -11), (-3, 9, -13), (1, 3, -7),
    )))

    def test_deep_pivot_refuses_a_reuse(self, monkeypatch):
        refused = []

        class Watched(resolution._TraceBuilder):
            def step(self, clause, assigned_mask, antecedents=None, pivot=0):
                for sid in self.by_clause.get(clause, ()):
                    if not self.pivots_below[sid] & assigned_mask:
                        break
                    if not own_pivot[sid] & assigned_mask:
                        refused.append(sid)  # the guard refuses it for a deeper pivot only
                sid = super().step(clause, assigned_mask, antecedents, pivot)
                own_pivot.setdefault(sid, 0 if antecedents is None else 1 << pivot)
                return sid

        own_pivot: dict[int, int] = {}
        monkeypatch.setattr(resolution, "_TraceBuilder", Watched)
        trace = dpll_refute(self.DEEP_PIVOT_CNF)
        assert check_refutation(self.DEEP_PIVOT_CNF, trace).ok and check_regularity(trace)
        assert len(trace) == 85
        assert refused


from mutations import corrupt, trace_mutations  # noqa: E402  (shared with the acceptance suite)


class TestMutations:
    @pytest.mark.parametrize("name,cnf", family_cnfs(), ids=[n for n, _ in family_cnfs()])
    def test_corruptions_rejected(self, name, cnf):
        trace = dpll_refute(cnf)
        assert check_refutation(cnf, trace).ok
        rng = random.Random(7)
        rejected = 0
        for _ in range(25):
            mutated = corrupt(trace, rng, cnf.num_vars)
            if mutated == trace:
                continue
            assert not check_refutation(cnf, mutated).ok
            rejected += 1
        assert rejected >= 20


class TestTraceText:
    def test_round_trip(self):
        cnf = to_cnf(TseitinFormula(fam.cycle(4), unit_charge(4, 0)))
        trace = dpll_refute(cnf)
        text = trace_to_text(trace)
        back = trace_from_text(text)
        assert back == trace
        assert trace_to_text(back) == text

    def test_equality_reads_clauses_not_tables(self):
        # DPLL tables all of the CNF's variables, the parser only those the
        # trace mentions: variable 3 occurs in no clause here
        cnf = Cnf(3, (frozenset({1, 2}), frozenset({-1, 2}), frozenset({-2})))
        trace = dpll_refute(cnf)
        back = trace_from_text(trace_to_text(trace))
        assert (trace.variables, back.variables) == ((1, 2, 3), (1, 2))
        assert back == trace and trace == back
        assert back != trace_from_text(trace_to_text(trace).replace("-2 0 0", "-1 0 0"))
        assert trace != trace.steps

    def test_axioms_have_empty_antecedents(self):
        text = trace_to_text(UNIT_TRACE)
        assert text.splitlines()[0] == "1 1 0 0"
        assert trace_from_text(text) == UNIT_TRACE


class TestResolveHelper:
    def test_resolvent(self):
        assert resolve(frozenset({1, 2}), frozenset({-1, 3}), 1) == frozenset({2, 3})

    def test_pivot_must_be_present(self):
        with pytest.raises(ValueError):
            resolve(frozenset({2}), frozenset({-1}), 1)


# --- reference: pivots by trying each clashing variable ---------------------
#
# `_pivot` used to resolve on every variable the antecedents clash on, in
# increasing order, and return the first whose resolvent is the clause.  It
# then read the pivot off the difference of literal sets (`lemmas.set_pivot`),
# and now off the difference of masks; all three must agree.


def reference_pivot(a: frozenset[int], b: frozenset[int], clause: frozenset[int]) -> int | None:
    """Smallest variable on which a and b, in either order, resolve to
    `clause`, or None."""
    for pivot in sorted({abs(lit) for lit in a if -lit in b}):
        first, second = (a, b) if pivot in a else (b, a)
        try:
            if resolve(first, second, pivot) == clause:
                return pivot
        except ValueError:  # an antecedent holds both literals of the pivot
            continue
    return None


def mask_pivot(a: Step, b: Step, c: Step, variables: tuple[int, ...]) -> int | None:
    """The library's `_pivot` as a variable id, or None."""
    bit = _pivot(a, b, c)
    return variables[bit.bit_length() - 1] if bit else None


def _derived_triples(trace: ResolutionTrace):
    """(antecedent, antecedent, step) for each derived step whose
    antecedents come earlier."""
    steps = {}
    for step in trace.steps:
        if step.antecedents is not None and all(a in steps for a in step.antecedents):
            i, j = step.antecedents
            yield steps[i], steps[j], step
        steps[step.id] = step


class TestPivotAgainstReference:
    def test_every_triple_on_three_variables(self):
        # each variable absent, positive, negative or both: 64 clauses,
        # tautologies included
        options = [(), (1,), (-1,), (1, -1)]
        clauses = [
            frozenset(v * lit for v, pick in zip((1, 2, 3), picks) for lit in pick)
            for picks in itertools.product(options, repeat=3)
        ]
        assert len(set(clauses)) == 64
        masks = trace_of([(0, cl, None) for cl in clauses])
        assert masks.variables == (1, 2, 3)
        step_of = dict(zip(clauses, masks.steps))
        resolving = 0
        for a, b, c in itertools.product(clauses, repeat=3):
            expected = reference_pivot(a, b, c)
            assert set_pivot(a, b, c) == expected, (sorted(a), sorted(b), sorted(c))
            assert mask_pivot(step_of[a], step_of[b], step_of[c], masks.variables) == expected, (sorted(a), sorted(b), sorted(c))
            resolving += expected is not None
        assert resolving

    @pytest.mark.parametrize("g", [fam.complete(6), fam.wheel(8)], ids=["K6", "W8"])
    def test_trace_steps_and_their_corruptions(self, g):
        cnf = to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))
        trace = dpll_refute(cnf)
        rng = random.Random(11)
        traces = [trace] + [corrupt(trace, rng, cnf.num_vars) for _ in range(20)]
        compared = 0
        for t in traces:
            for a, b, c in _derived_triples(t):
                sets = clause(t, a), clause(t, b), clause(t, c)
                assert mask_pivot(a, b, c, t.variables) == reference_pivot(*sets) == set_pivot(*sets)
                compared += 1
        assert all((not pivot) == (step.antecedents is None) for step, pivot in zip(trace.steps, trace.pivots))
        assert compared >= 20 * sum(step.antecedents is not None for step in trace.steps)


# --- reference: parser and checker with stored pivots -------------------------
#
# Steps carried a pivot, which the parser recovered by resolving each parsed
# step up to four times and the checker resolved again.  The library derives
# pivots once in `ResolutionTrace.pivots`; verdicts must not differ.


@dataclass(frozen=True)
class _PivotStep:
    id: int
    clause: frozenset[int]
    antecedents: tuple[int, int] | None = None
    pivot: int | None = None

    @property
    def is_axiom(self) -> bool:
        return self.antecedents is None


def reference_trace_from_text(text: str) -> list[_PivotStep]:
    steps = []
    by_id = {}
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
        if not ants:
            step = _PivotStep(sid, clause)
        elif len(ants) == 2:
            pivot = _reference_infer_pivot(by_id, ants, clause)
            step = _PivotStep(sid, clause, (ants[0], ants[1]), pivot)
        else:
            raise ln.error(f"step {sid}: expected 0 or 2 antecedents, got {len(ants)}")
        steps.append(step)
        by_id[sid] = step
    return steps


def _reference_infer_pivot(by_id, ants, clause) -> int:
    if ants[0] not in by_id or ants[1] not in by_id:
        return 0
    a, b = by_id[ants[0]].clause, by_id[ants[1]].clause
    candidates = sorted({abs(l) for l in a if -l in b})
    for pivot in candidates:
        for first, second in ((a, b), (b, a)):
            try:
                if resolve(first, second, pivot) == clause:
                    return pivot
            except ValueError:
                continue
    return candidates[0] if candidates else 0


def reference_check_refutation(cnf: Cnf, steps: list[_PivotStep]) -> CheckResult:
    if not steps:
        return CheckResult(False, "empty trace")
    inputs = {frozenset(cl) for cl in cnf.clauses}
    seen: dict[int, _PivotStep] = {}
    result = CheckResult(True)
    last = None
    for step in steps:
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
            if step.pivot is None:
                return CheckResult(False, f"step {step.id}: derived step without pivot", step.id)
            a, b = seen[i].clause, seen[j].clause
            if step.pivot in a and -step.pivot in b:
                pass
            elif step.pivot in b and -step.pivot in a:
                a, b = b, a
            else:
                return CheckResult(False, f"step {step.id}: pivot {step.pivot} not resolvable", step.id)
            try:
                resolvent = resolve(a, b, step.pivot)
            except ValueError as exc:
                return CheckResult(False, f"step {step.id}: {exc}", step.id)
            if resolvent != step.clause:
                return CheckResult(False, f"step {step.id}: clause is not the resolvent", step.id)
        if any(-lit in step.clause for lit in step.clause):
            result.tautology_steps.append(step.id)
        seen[step.id] = step
    if steps[-1].clause:
        return CheckResult(False, "final clause is not empty", steps[-1].id)
    result.tautology_steps = sorted(result.tautology_steps)
    return result


def reference_check_regularity(steps: list[_PivotStep]) -> bool:
    users: dict[int, list[_PivotStep]] = {}
    for step in steps:
        if not step.is_axiom:
            for a in step.antecedents:
                users.setdefault(a, []).append(step)
    above: dict[int, int] = {}
    for step in reversed(steps):
        mask = 0
        for d in users.get(step.id, ()):
            mask |= above[d.id] | (1 << d.pivot)
        above[step.id] = mask
    for step in steps:
        if not step.is_axiom and above[step.id] & (1 << step.pivot):
            return False
    return True


# Where no variable resolves the antecedents to the step's clause, the stored
# pivot was a guess and the reference named it or passed on `resolve`'s own
# complaint; the library reports the clause as not the resolvent.
_GUESSED_PIVOT = re.compile(r"(step \d+): (pivot \d+ not resolvable|.*antecedent must contain.*)")


def verdicts(cnf: Cnf, text: str, reference: bool):
    if reference:
        steps = reference_trace_from_text(text)
        result = reference_check_refutation(cnf, steps)
        regular = reference_check_regularity(steps) if result.ok else None
        error = _GUESSED_PIVOT.sub(r"\1: clause is not the resolvent", result.error or "")
    else:
        trace = trace_from_text(text)
        result = check_refutation(cnf, trace)
        regular = check_regularity(trace) if result.ok else None
        error = result.error or ""
    return result.ok, result.failed_step, error, result.tautology_steps, regular


def _rewire(text: str, rng: random.Random) -> str:
    """Point one derived step at two random earlier steps."""
    lines = text.splitlines()
    derived = [i for i, ln in enumerate(lines) if not ln.endswith(" 0 0")]
    i = rng.choice(derived)
    fields = lines[i].split()
    ids = [int(ln.split()[0]) for ln in lines[:i]]
    fields[-3:-1] = [str(rng.choice(ids)), str(rng.choice(ids))]
    lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _with_tautologies(trace: ResolutionTrace, rng: random.Random, count: int) -> str:
    """The trace with ids doubled and `count` unused tautological
    resolvents inserted at odd ids: still a refutation, maybe irregular."""
    rows = [(2 * s.id, clause(trace, s), s.antecedents and tuple(2 * a for a in s.antecedents))
            for s in trace.steps]
    added: dict[int, tuple] = {}
    for _ in range(50 * count):
        if len(added) == count:
            break
        i, j = sorted(rng.sample(range(len(rows) - 1), 2))
        (ai, a, _), (bj, b, _) = rows[i], rows[j]
        clashes = sorted(abs(lit) for lit in a if -lit in b)
        if len(clashes) < 2 or bj + 1 in added:
            continue
        p = rng.choice(clashes)
        first, second = (a, b) if p in a else (b, a)
        try:
            added[bj + 1] = (bj + 1, resolve(first, second, p), (ai, bj))
        except ValueError:  # an antecedent holds p and -p
            continue
    out = []
    for row in rows:
        out.append(row)
        if row[0] + 1 in added:
            out.append(added[row[0] + 1])
    return trace_to_text(trace_of(out))


class TestAgainstReferenceChecker:
    @pytest.mark.parametrize(
        "name,cnf",
        family_cnfs() + [("grid3x3", to_cnf(TseitinFormula(fam.grid(3, 3), unit_charge(9, 0)))),
                         ("Q3", to_cnf(TseitinFormula(fam.cube(3), unit_charge(8, 0))))],
        ids=[n for n, _ in family_cnfs()] + ["grid3x3", "Q3"],
    )
    def test_same_verdicts(self, name, cnf):
        trace = dpll_refute(cnf)
        rng = random.Random(zlib.crc32(name.encode()))
        texts = [trace_to_text(trace)]
        texts += [trace_to_text(corrupt(trace, rng, cnf.num_vars)) for _ in range(40)]
        texts += [_rewire(texts[0], rng) for _ in range(40)]
        for text in texts:
            assert verdicts(cnf, text, reference=False) == verdicts(cnf, text, reference=True)
        assert verdicts(cnf, texts[0], reference=False)[0]

    def test_hand_built_traces(self):
        x, y = 1, 2
        cnf = Cnf(2, (frozenset({x, y}), frozenset({-x, y}), frozenset({x, -y}), frozenset({-x, -y})))
        irregular = "1 1 2 0 0\n2 -1 2 0 0\n3 2 0 1 2 0\n4 1 -2 0 0\n5 1 0 3 4 0\n" \
                    "7 2 0 5 2 0\n8 -1 -2 0 0\n9 -2 0 4 8 0\n10 0 7 9 0\n"
        tautology = "1 1 2 0 0\n2 -1 -2 0 0\n3 -2 2 0 1 2 0\n4 1 -2 0 0\n5 -1 2 0 0\n" \
                    "6 -2 2 0 4 5 0\n7 2 0 1 5 0\n8 -2 0 4 2 0\n9 0 7 8 0\n"
        for text in (irregular, tautology, "1 1 2 0 0\n2 -1 -2 0 0\n3 0 1 2 0\n"):
            assert verdicts(cnf, text, reference=False) == verdicts(cnf, text, reference=True)

    @staticmethod
    def every_mutation(cnf: Cnf, rng: random.Random, copies: int) -> list[str]:
        """The DPLL trace, `copies` corruptions of each kind that applies
        to it, and `copies` valid copies with tautologies added."""
        trace = dpll_refute(cnf)
        texts = [trace_to_text(trace)]
        for kind in trace_mutations(trace, cnf.num_vars):
            texts += [trace_to_text(corrupt(trace, rng, cnf.num_vars, kind)) for _ in range(copies)]
        texts += [_with_tautologies(trace, rng, 3) for _ in range(copies)]
        return texts

    @pytest.mark.parametrize("g", [fam.complete(6), fam.wheel(8), fam.grid(3, 4)], ids=["K6", "W8", "grid3x4"])
    def test_every_mutation_of_named_traces(self, g):
        cnf = to_cnf(TseitinFormula(g, unit_charge(g.n, 0)))
        errors, tautologies = set(), 0
        for text in self.every_mutation(cnf, random.Random(g.m), 4):
            ours = verdicts(cnf, text, reference=False)
            assert ours == verdicts(cnf, text, reference=True)
            errors.add(ours[2].split(": ")[-1])
            tautologies += bool(ours[3])
        assert len(errors) == 5 and tautologies == 4  # four diagnostics and "" for the valid traces

    def test_every_mutation_on_random_unsatisfiable_cnfs(self):
        tautologies = 0
        for seed, cnf in random_unsatisfiable_cnfs(60):
            for text in self.every_mutation(cnf, random.Random(seed), 2):
                ours = verdicts(cnf, text, reference=False)
                assert ours == verdicts(cnf, text, reference=True), f"seed {seed}"
                tautologies += bool(ours[3])
        assert tautologies
