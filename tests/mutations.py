"""Single-step corruptions of artifacts.

Trace corruptions are each guaranteed to change what the checker sees
(wrong resolvent, foreign axiom, missing empty clause, or a forward
antecedent reference).  Program mutations may or may not break the
program; they feed the comparison of the structural validator with the
brute-force sweep.
"""

import random

from tseitinkit.bp import BranchingProgram
from tseitinkit.graphs import Graph
from tseitinkit.resolution import ResolutionTrace

from lemmas import clause, trace_of


def mutate_bp(b: BranchingProgram, g: Graph, rng: random.Random) -> BranchingProgram:
    """One child swap, variable change, child redirect or sink change.

    Raises ValueError when the redirect closes a cycle.
    """
    decisions = dict(b.decisions)
    sinks = dict(b.sinks)
    kind = rng.choice(["swap", "var", "redirect", "sink"] if decisions else ["sink"])
    if kind == "sink":
        sinks[rng.choice(sorted(sinks))] = rng.randrange(g.n)
    else:
        u = rng.choice(sorted(decisions))
        var, lo, hi = decisions[u]
        if kind == "swap":
            decisions[u] = (var, hi, lo)
        elif kind == "var":
            decisions[u] = (rng.randrange(g.m), lo, hi)
        else:
            ids = sorted(b.decisions.keys() | b.sinks.keys())
            if rng.random() < 0.5:
                decisions[u] = (var, rng.choice(ids), hi)
            else:
                decisions[u] = (var, lo, rng.choice(ids))
    return BranchingProgram(b.source, decisions, sinks)


def trace_mutations(trace: ResolutionTrace, num_vars: int) -> list[str]:
    """The kinds of `corrupt` that apply to the trace."""
    clauses = [clause(trace, s) for s in trace.steps]
    derived = [cl for s, cl in zip(trace.steps, clauses) if s.antecedents is not None]
    axioms = [cl for s, cl in zip(trace.steps, clauses) if s.antecedents is None]
    kinds = ["drop_empty"]
    if derived:
        kinds += ["bad_antecedent"]
        if any(_free_lits(cl, num_vars) for cl in derived):
            kinds += ["add_lit"]
        if any(derived):
            kinds += ["drop_lit"]
    if any(_free_lits(cl, num_vars) for cl in axioms):
        kinds += ["axiom_lit"]
    return kinds


def _free_lits(cl: frozenset[int], num_vars: int) -> list[int]:
    return [v for v in range(1, num_vars + 1) if v not in cl and -v not in cl]


def corrupt(trace: ResolutionTrace, rng: random.Random, num_vars: int, kind: str | None = None) -> ResolutionTrace:
    """One corruption of the given kind, or of a kind the seed picks from
    `trace_mutations`."""
    rows = [(s.id, clause(trace, s), s.antecedents) for s in trace.steps]
    derived = [i for i, s in enumerate(trace.steps) if s.antecedents is not None]
    axioms = [i for i, s in enumerate(trace.steps) if s.antecedents is None]
    if kind is None:
        kind = rng.choice(trace_mutations(trace, num_vars))
    if kind == "add_lit":
        i = rng.choice([i for i in derived if _free_lits(rows[i][1], num_vars)])
        sid, cl, ants = rows[i]
        rows[i] = (sid, cl | {rng.choice(_free_lits(cl, num_vars))}, ants)
    elif kind == "drop_lit":
        i = rng.choice([i for i in derived if rows[i][1]])
        sid, cl, ants = rows[i]
        rows[i] = (sid, cl - {rng.choice(sorted(cl))}, ants)
    elif kind == "drop_empty":
        rows = rows[:-1]
    elif kind == "axiom_lit":
        i = rng.choice([i for i in axioms if _free_lits(rows[i][1], num_vars)])
        sid, cl, ants = rows[i]
        rows[i] = (sid, cl | {rng.choice(_free_lits(cl, num_vars))}, None)
    else:  # point an antecedent at the final step, violating precedence
        i = rng.choice(derived)
        sid, cl, ants = rows[i]
        rows[i] = (sid, cl, (rows[-1][0], ants[1]))
    return trace_of(rows)
