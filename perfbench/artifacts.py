"""Counts and seeded corruptions read from the artifact text formats.

The counts and the corruptions use the text formats alone, so they do not
depend on the library's classes.

Each corruption takes the text of a genuine artifact and returns the text of
a copy that any sound checker must reject, together with the kind of
corruption made.  Each kind carries its own reason why the verdict must
change:

* bp, swap: a decision whose two children are distinct sinks decides the
  only edge ab of its subgraph and sends each literal to the vertex whose
  constraint that literal violates; swapped, the 0-wire reaches the other
  vertex, whose constraint the 0-literal satisfies.
* bp, reread: a decision takes the variable of one of its parents, so a
  path queries that variable twice and the program is not read-once.
* nnf: one literal leaf is negated, and an assignment on which the
  circuit's value changes is found by the evaluator below before the copy
  is accepted, so the copy computes another function.
* trace: the kinds of tests/mutations.py that survive the text format
  (which stores no pivots): the final empty clause dropped, a literal
  added to or dropped from a derived clause (no longer the resolvent), a
  literal added to an axiom (checked to be outside the CNF), or an
  antecedent pointing forward to the last step.
* certificate: k raised by one (k then disagrees with 2^k = bound or with
  the stored chain), or a vertex outside V'' added to V*.
"""

from __future__ import annotations

import random
import zlib

NNF_SAMPLES = 256  # assignments of each kind tried when looking for a flip's witness


def rng_for(seed: int, *labels: str) -> random.Random:
    """Generator derived stably from the seed and labels (no salted hash())."""
    return random.Random(zlib.crc32(":".join([str(seed), *labels]).encode()))


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith(("#", "c "))]


# --- branching programs ------------------------------------------------------


def parse_bp(text: str) -> tuple[int, dict[int, tuple[int, int, int]], dict[int, int]]:
    """(source, decisions id -> (edge, 0-child, 1-child), sinks id -> vertex)."""
    source = None
    decisions = {}
    sinks = {}
    for ln in _lines(text):
        parts = ln.split()
        if parts[0] == "source":
            source = int(parts[1])
        elif parts[0] == "node":
            decisions[int(parts[1])] = (int(parts[2]), int(parts[3]), int(parts[4]))
        elif parts[0] == "sink":
            sinks[int(parts[1])] = int(parts[2])
    return source, decisions, sinks


def _odd_component(edges, edge_ids, charge, start):
    """Vertices, edge ids and charge of the component of `start` in the
    subgraph on edge_ids, or None when its charge is even."""
    verts = {start}
    comp_edges = set()
    stack = [start]
    while stack:
        u = stack.pop()
        for e in edge_ids:
            a, b = edges[e]
            if u in (a, b):
                comp_edges.add(e)
                w = b if u == a else a
                if w not in verts:
                    verts.add(w)
                    stack.append(w)
    if sum(charge[v] for v in verts) % 2 == 0:
        return None
    return frozenset(verts), frozenset(comp_edges), {v: charge[v] for v in verts}


def bp_vertex_total(text: str, n: int, edges, charge) -> int:
    """Sum over program nodes of |V(G_k)|, the vertex count of the
    subgraph each node is forced to handle once the source handles (G, c):
    deciding edge ab hands each literal's child the odd-charged component
    of G_k - ab under that literal."""
    source, decisions, _ = parse_bp(text)
    ann = {source: (frozenset(range(n)), frozenset(range(len(edges))), dict(enumerate(charge)))}
    stack = [source]
    while stack:
        u = stack.pop()
        if u not in decisions:
            continue
        var, lo, hi = decisions[u]
        _, edge_ids, gamma = ann[u]
        a, b = edges[var]
        rest = edge_ids - {var}
        for child, flip in ((lo, 0), (hi, 1)):
            if child in ann:
                continue
            side = dict(gamma)
            side[a] ^= flip
            side[b] ^= flip
            ann[child] = _odd_component(edges, rest, side, a) or _odd_component(edges, rest, side, b)
            stack.append(child)
    return sum(len(vertices) for vertices, _, _ in ann.values())


def corrupt_bp(text: str, rng: random.Random) -> tuple[str, str]:
    source, decisions, sinks = parse_bp(text)
    swap = sorted(nid for nid, (_, lo, hi) in decisions.items()
                  if lo in sinks and hi in sinks and sinks[lo] != sinks[hi])
    parents: dict[int, list[int]] = {}
    for nid, (_, lo, hi) in sorted(decisions.items()):
        for child in (lo, hi):
            if child in decisions:
                parents.setdefault(child, []).append(nid)
    reread = sorted(parents)
    kind = rng.choice([k for k, pool in (("swap", swap), ("reread", reread)) if pool])
    if kind == "swap":
        nid = rng.choice(swap)
        var, lo, hi = decisions[nid]
        decisions[nid] = (var, hi, lo)
    else:
        nid = rng.choice(reread)
        _, lo, hi = decisions[nid]
        decisions[nid] = (decisions[rng.choice(parents[nid])][0], lo, hi)
    lines = [f"source {source}"]
    lines += [f"node {nid} {var} {lo} {hi}" for nid, (var, lo, hi) in sorted(decisions.items())]
    lines += [f"sink {nid} {v}" for nid, v in sorted(sinks.items())]
    return "\n".join(lines) + "\n", f"bp:{kind}"


# --- DNNF circuits -----------------------------------------------------------


def nnf_counts(text: str) -> tuple[int, int, int]:
    """(internal gates, nodes, variables) of a circuit file, counting a
    k-ary gate as the k - 1 binary gates it stands for."""
    lines = _lines(text)
    internal = 0
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] in ("A", "O"):
            internal += max(int(parts[1 if parts[0] == "A" else 2]) - 1, 0)
    header = lines[0].split()
    return internal, int(header[1]), int(header[3])


def _nnf_gates(lines: list[str]) -> list[tuple]:
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "L":
            gates.append(("L", int(parts[1])))
        elif parts[0] == "A":
            gates.append(("A", [int(x) for x in parts[2:]]))
        elif parts[0] == "O":
            gates.append(("O", [int(x) for x in parts[3:]]))
        else:
            raise ValueError(f"unrecognized node line: {ln}")
    return gates


def _evaluate(gates: list[tuple], num_vars: int, samples: list[int]) -> int:
    """Root value on each sampled assignment, packed as bit j of an int.

    Assignment j sets variable v (1-based) to bit v-1 of samples[j]."""
    full = (1 << len(samples)) - 1
    columns = []
    for v in range(num_vars):
        col = 0
        for j, mask in enumerate(samples):
            col |= ((mask >> v) & 1) << j
        columns.append(col)
    vals = []
    for kind, arg in gates:
        if kind == "L":
            col = columns[abs(arg) - 1]
            vals.append(col if arg > 0 else full & ~col)
        elif kind == "A":
            acc = full
            for child in arg:
                acc &= vals[child]
            vals.append(acc)
        else:
            acc = 0
            for child in arg:
                acc |= vals[child]
            vals.append(acc)
    return vals[-1]


def _reachable(gates: list[tuple]) -> set[int]:
    seen = set()
    stack = [len(gates) - 1]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        if gates[i][0] != "L":
            stack.extend(gates[i][1])
    return seen


def _sample_model(gates: list[tuple], num_vars: int, rng: random.Random) -> int:
    """Assignment accepted by a random proof tree (literals on the tree set
    their variables, the rest are random); a model when AND gates are
    decomposable, which the witness search does not rely on."""
    satisfiable = []
    for kind, arg in gates:
        if kind == "L":
            satisfiable.append(True)
        elif kind == "A":
            satisfiable.append(all(satisfiable[c] for c in arg))
        else:
            satisfiable.append(any(satisfiable[c] for c in arg))
    mask = rng.getrandbits(num_vars)
    stack = [len(gates) - 1] if satisfiable[-1] else []
    while stack:
        kind, arg = gates[stack.pop()]
        if kind == "L":
            bit = 1 << (abs(arg) - 1)
            mask = mask | bit if arg > 0 else mask & ~bit
        elif kind == "A":
            stack.extend(arg)
        else:
            stack.append(rng.choice([c for c in arg if satisfiable[c]]))
    return mask


def corrupt_nnf(text: str, rng: random.Random) -> tuple[str, str]:
    """Negate one reachable literal leaf, once some sampled assignment (half
    drawn from the circuit's proof trees, where a flip shows, half uniform)
    evaluates differently before and after."""
    lines = _lines(text)
    num_vars = int(lines[0].split()[3])
    gates = _nnf_gates(lines)
    points = [_sample_model(gates, num_vars, rng) for _ in range(NNF_SAMPLES)]
    points += [rng.getrandbits(num_vars) for _ in range(NNF_SAMPLES)]
    before = _evaluate(gates, num_vars, points)
    leaves = sorted(i for i in _reachable(gates) if gates[i][0] == "L")
    rng.shuffle(leaves)
    for i in leaves:
        flipped = list(gates)
        flipped[i] = ("L", -gates[i][1])
        if _evaluate(flipped, num_vars, points) != before:
            lines[i + 1] = f"L {-gates[i][1]}"
            return "\n".join(lines) + "\n", "nnf:flip"
    raise ValueError("no literal flip changed the circuit on the sampled assignments")


# --- resolution traces -------------------------------------------------------


def _trace_steps(text: str) -> list[tuple[int, list[int], list[int]]]:
    steps = []
    for ln in _lines(text):
        nums = [int(x) for x in ln.split()]
        z = nums.index(0, 1)
        steps.append((nums[0], nums[1:z], nums[z + 1:-1]))
    return steps


def _trace_text(steps) -> str:
    out = []
    for sid, lits, ants in steps:
        out.append(" ".join(str(x) for x in [sid, *lits, 0, *ants, 0]))
    return "\n".join(out) + "\n"


def corrupt_trace(text: str, cnf_text: str, rng: random.Random) -> tuple[str, str]:
    steps = _trace_steps(text)
    num_vars = int(_lines(cnf_text)[0].split()[2])
    inputs = {frozenset(int(x) for x in ln.split()[:-1]) for ln in _lines(cnf_text)[1:]}
    derived = [i for i, (_, _, ants) in enumerate(steps) if ants]
    axioms = [i for i, (_, _, ants) in enumerate(steps) if not ants]

    def free(lits):
        used = {abs(x) for x in lits}
        return [v for v in range(1, num_vars + 1) if v not in used]

    def axiom_additions(i):
        lits = steps[i][1]
        return [s * v for v in free(lits) for s in (1, -1) if frozenset(lits + [s * v]) not in inputs]

    pools = {
        "drop_empty": [len(steps) - 1] if len(steps) > 1 and steps[-2][1] else [],
        "add_lit": [i for i in derived if free(steps[i][1])],
        "drop_lit": [i for i in derived if steps[i][1]],
        "axiom_lit": [i for i in axioms if axiom_additions(i)],
        "bad_antecedent": [i for i in derived if i != len(steps) - 1],
    }
    kind = rng.choice(sorted(k for k, pool in pools.items() if pool))
    i = rng.choice(pools[kind])
    sid, lits, ants = steps[i]
    if kind == "drop_empty":
        steps = steps[:-1]
    elif kind == "add_lit":
        steps[i] = (sid, lits + [rng.choice((1, -1)) * rng.choice(free(lits))], ants)
    elif kind == "drop_lit":
        dropped = rng.choice(lits)
        steps[i] = (sid, [x for x in lits if x != dropped], ants)
    elif kind == "axiom_lit":
        steps[i] = (sid, lits + [rng.choice(axiom_additions(i))], ants)
    else:
        steps[i] = (sid, lits, [steps[-1][0], ants[1]])
    return _trace_text(steps), f"trace:{kind}"


# --- certificates ------------------------------------------------------------


def corrupt_certificate(text: str, rng: random.Random) -> tuple[str, str]:
    fields = {}
    order = []
    for ln in _lines(text):
        name, _, value = ln.partition(":")
        fields[name.strip()] = value.strip()
        order.append(name.strip())
    k = int(fields["k"])
    v_second = {int(x) for x in fields["v_second"].split()}
    outside = [v for v in range(int(fields["minor_n"])) if v not in v_second]
    kinds = ["k"] + (["v_star"] if k > 0 and outside else [])
    kind = rng.choice(kinds)
    if kind == "k":
        fields["k"] = str(k + 1)
    else:
        v_star = sorted({int(x) for x in fields["v_star"].split()} | {rng.choice(outside)})
        fields["v_star"] = " ".join(str(v) for v in v_star)
    return "\n".join(f"{name}: {fields[name]}" for name in order) + "\n", f"certificate:{kind}"
