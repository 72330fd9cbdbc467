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
from tseitinkit.resolution import ResolutionTrace, Step


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


def corrupt(trace: ResolutionTrace, rng: random.Random, num_vars: int) -> ResolutionTrace:
    derived = [i for i, s in enumerate(trace.steps) if not s.is_axiom]
    axioms = [i for i, s in enumerate(trace.steps) if s.is_axiom]

    def free_lits(s):
        return [v for v in range(1, num_vars + 1) if v not in s.clause and -v not in s.clause]

    kinds = ["drop_empty"]
    if derived:
        kinds += ["bad_antecedent"]
        if any(free_lits(trace.steps[i]) for i in derived):
            kinds += ["add_lit"]
        if any(trace.steps[i].clause for i in derived):
            kinds += ["drop_lit"]
    if axioms and any(free_lits(trace.steps[i]) for i in axioms):
        kinds += ["axiom_lit"]
    kind = rng.choice(kinds)
    steps = list(trace.steps)
    if kind == "add_lit":
        i = rng.choice([i for i in derived if free_lits(trace.steps[i])])
        s = steps[i]
        steps[i] = Step(s.id, s.clause | {rng.choice(free_lits(s))}, s.antecedents)
    elif kind == "drop_lit":
        i = rng.choice([i for i in derived if trace.steps[i].clause])
        s = steps[i]
        lit = rng.choice(sorted(s.clause))
        steps[i] = Step(s.id, s.clause - {lit}, s.antecedents)
    elif kind == "drop_empty":
        steps = steps[:-1]
    elif kind == "axiom_lit":
        i = rng.choice([i for i in axioms if free_lits(trace.steps[i])])
        s = steps[i]
        steps[i] = Step(s.id, s.clause | {rng.choice(free_lits(s))})
    else:  # point an antecedent at the final step, violating precedence
        i = rng.choice(derived)
        s = steps[i]
        steps[i] = Step(s.id, s.clause, (trace.steps[-1].id, s.antecedents[1]))
    return ResolutionTrace(tuple(steps))
