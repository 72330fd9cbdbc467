"""Rectangle machinery and the certified DNNF lower-bound chain.

The adversarial cover game: the cover player picks an uncovered model and
the proof tree accepting it; the adversary answers with a cut of the
induced variable tree; the cover player must then cover the model with a
rectangle for that partition drawn from the circuit (the models accepted
through one gate).  On a 3-connected graph the adversary's cut pins a
boundary, an independent subset of it, and a safe-split subset of that,
which caps every rectangle at 2^(m - n - k + 1) models; with 2^(m - n + 1)
models in total the game cannot end in fewer than 2^k rounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .graphs import Graph, SplitRequest, graph_to_text, greedy_independent_set, is_3_connected, is_connected, safe_split_subset
from .minors import three_connected_minor
from .nnf import CONST, LIT, OR, NnfCircuit, enumerate_proof_trees, gate_rectangle, gate_values, is_smooth, validate_decomposable
from .oracles import point
from .rectangles import Rectangle, is_rectangle, mask_of
from .recursion import run
from .textformat import Line, records
from .tseitin import SubConstraint, TseitinFormula, brute_force_models, conjoin_subconstraints_count
from .width import TREEWIDTH_EXACT_CAP, BranchDecomposition, Cut, caterpillar, edge_order, max_order_cut, treewidth_bounds


def induced_subconstraint(r: Rectangle, t: TseitinFormula, v: int) -> SubConstraint:
    """Sub-constraint on E1(v) that every model of the rectangle satisfies.

    The A-side parity at a boundary vertex is constant across the
    rectangle whenever the rectangle respects the formula; a non-constant
    parity therefore signals an internal error, not bad input.
    """
    if not r.a_side or not r.b_side:
        raise ValueError("empty rectangle induces no sub-constraint")
    e1_at_v = [e for e in t.graph.incident[v] if (r.e1_mask >> e) & 1]
    e2_at_v = [e for e in t.graph.incident[v] if (r.e2_mask >> e) & 1]
    if not e1_at_v or not e2_at_v:
        raise ValueError(f"vertex {v} is not incident to both sides of the partition")
    for mask in r.models():
        if not t.satisfies(mask):
            raise ValueError("rectangle is not contained in the model set")
    sub_mask = mask_of(e1_at_v)
    parities = {bin(a & sub_mask).count("1") & 1 for a in r.a_side}
    if len(parities) != 1:
        raise AssertionError(f"vertex {v}: A-side parity not constant over the rectangle")
    return SubConstraint(v, tuple(e1_at_v), parities.pop())


@dataclass
class AdamResponse:
    cut: Cut
    v_prime: tuple[int, ...]
    v_second: tuple[int, ...]
    v_star: tuple[int, ...]
    requests: dict[int, SplitRequest]
    cap_exponent: int


def adam_response(g: Graph, t: BranchDecomposition) -> AdamResponse:
    """Adversary strategy on a 3-connected graph for a given variable tree.

    Takes the maximum-order cut, an independent subset of its boundary,
    and the safe-split subset of that along the neighbor partitions the
    cut induces; the cap exponent is m - n - |V*| + 1.
    """
    if not is_3_connected(g):
        raise ValueError("adversary strategy needs a 3-connected graph")
    cut = max_order_cut(t, g)
    v_prime = cut.boundary
    v_second = greedy_independent_set(g, v_prime)
    e1 = set(cut.e1)
    requests = {}
    for v in v_second:
        n1 = tuple(sorted(g.other_end(e, v) for e in g.incident[v] if e in e1))
        n2 = tuple(sorted(set(g.adj[v]) - set(n1)))
        requests[v] = SplitRequest(v, n1, n2)
    chosen = safe_split_subset(g, [requests[v] for v in v_second])
    v_star = tuple(sorted(r.vertex for r in chosen))
    cap = g.m - g.n - len(v_star) + 1
    return AdamResponse(cut, v_prime, tuple(v_second), v_star, requests, cap)


def rectangle_cap_check(t: TseitinFormula, adam: AdamResponse, r: Rectangle) -> bool:
    """|R| <= 2^cap, via the sub-constraint + split-count composition."""
    if r.e1_mask != mask_of(adam.cut.e1) or r.e2_mask != mask_of(adam.cut.e2):
        raise ValueError("rectangle partition differs from the adversary's cut")
    subs = [induced_subconstraint(r, t, v) for v in adam.v_star]
    count = conjoin_subconstraints_count(t, subs)
    if count != 1 << adam.cap_exponent:
        raise AssertionError("split count disagrees with the cap exponent")
    for mask in r.models():
        if not all(s.holds(mask) for s in subs):
            raise AssertionError("rectangle escapes its induced sub-constraints")
    return r.size <= count


# --- game simulation ---------------------------------------------------------


@dataclass
class GameRound:
    model: int
    gate: int
    e1_size: int
    rectangle_size: int
    cap_exponent: int | None
    covered_new: int


@dataclass
class GameTranscript:
    rounds: list[GameRound] = field(default_factory=list)
    total_models: int = 0
    max_rectangle: int = 0

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def round_lower_bound(self) -> int:
        if not self.max_rectangle:
            return 0
        return -(-self.total_models // self.max_rectangle)

    @property
    def cap_round_lower_bound(self) -> int:
        """total models / largest per-round cap; 0 without cap data."""
        caps = [r.cap_exponent for r in self.rounds if r.cap_exponent is not None]
        if not caps:
            return 0
        return -(-self.total_models // (1 << max(caps)))


@dataclass(frozen=True)
class _WalkNode:
    gate: int  # gate after contracting the or-chain (an AND or a literal)
    var_mask: int
    children: tuple  # () for leaves


def _proof_walk(d: NnfCircuit, mask: int) -> _WalkNode:
    """Occurrence tree of the accepting proof tree for a model, choosing
    the true child at every OR gate (smaller id on ties)."""
    vals = gate_values(d, point(mask))

    def walk(i: int):
        while d.gates[i].kind == OR:
            g = d.gates[i]
            if vals[g.a]:
                i = g.a
            elif vals[g.b]:
                i = g.b
            else:
                raise ValueError("model does not satisfy the circuit")
        g = d.gates[i]
        if g.kind == LIT:
            return _WalkNode(i, d.var_masks[i], ())
        if g.kind == CONST:
            raise ValueError("constants must be propagated before playing the game")
        left = yield walk(g.a)
        right = yield walk(g.b)
        return _WalkNode(i, d.var_masks[i], (left, right))

    return run(walk(d.root))


def _vtree_of_walk(d: NnfCircuit, walk: _WalkNode) -> tuple[BranchDecomposition, dict[int, int]]:
    """Variable tree induced by a proof tree, with a node -> gate map."""
    nodes: list[tuple] = []
    gate_of: dict[int, int] = {}

    def build(w: _WalkNode):
        my = len(nodes)
        nodes.append(None)
        gate_of[my] = w.gate
        if not w.children:
            nodes[my] = ("leaf", d.gates[w.gate].var)
        else:
            li = yield build(w.children[0])
            ri = yield build(w.children[1])
            nodes[my] = ("node", li, ri)
        return my

    run(build(walk))
    return BranchDecomposition(tuple(nodes)), gate_of


def game_simulate(d: NnfCircuit, t: TseitinFormula) -> GameTranscript:
    """Play the cover game with the circuit's own rectangles.

    The cover player always picks the smallest uncovered model and its
    accepting proof tree; the adversary plays the max-order cut of the
    induced variable tree (with the full safe-split cap when the graph is
    3-connected, vacuous cap otherwise).  Every rectangle is checked
    against its cap; rounds never exceed the node count and a gate never
    repeats.
    """
    if not validate_decomposable(d) or not is_smooth(d):
        raise ValueError("the game needs a smooth decomposable circuit")
    sat_masks = brute_force_models(t)
    circuit_sat = set(sat_masks)
    trees = enumerate_proof_trees(d)
    three_conn = is_3_connected(t.graph)
    uncovered = set(sat_masks)
    transcript = GameTranscript(total_models=len(sat_masks))
    used_gates: set[int] = set()
    while uncovered:
        a = min(uncovered)
        walk = _proof_walk(d, a)
        vtree, gate_of = _vtree_of_walk(d, walk)
        if three_conn:
            adam = adam_response(t.graph, vtree)
            cut = adam.cut
            cap: int | None = adam.cap_exponent
        else:
            adam = None
            cut = max_order_cut(vtree, t.graph)
            cap = None
        gate = gate_of[cut.node_id]
        if gate in used_gates:
            raise AssertionError("a gate repeated across rounds")
        used_gates.add(gate)
        rect = gate_rectangle(d, gate, trees)
        rect_models = rect.models()
        if not rect_models <= circuit_sat:
            raise AssertionError("rectangle leaves the model set")
        if a not in rect_models:
            raise AssertionError("rectangle misses the chosen model")
        if adam is not None and not rectangle_cap_check(t, adam, rect):
            raise AssertionError("rectangle exceeds the adversary's cap")
        newly = len(uncovered & rect_models)
        uncovered -= rect_models
        transcript.rounds.append(GameRound(a, gate, bin(rect.e1_mask).count("1"), rect.size, cap, newly))
        transcript.max_rectangle = max(transcript.max_rectangle, rect.size)
        if transcript.round_count > d.node_count:
            raise AssertionError("more rounds than circuit nodes")
    return transcript


def extract_balanced_cover(d: NnfCircuit) -> list[Rectangle]:
    """Balanced rectangle cover of the circuit's models, at most one
    rectangle per gate, found by descending each proof tree from the root
    into the larger-variable child until the var set is balanced."""
    if d.num_vars < 3:
        raise ValueError("balanced covers need at least 3 variables")
    if not validate_decomposable(d) or not is_smooth(d):
        raise ValueError("balanced covers need a smooth decomposable circuit")
    trees = enumerate_proof_trees(d)
    sat = {t.model() for t in trees}
    total = d.num_vars
    cover: list[Rectangle] = []
    uncovered = set(sat)
    covered_union: set[int] = set()
    while uncovered:
        a = min(uncovered)
        node = _proof_walk(d, a)
        while 3 * bin(node.var_mask).count("1") > 2 * total:
            if not node.children:
                raise ValueError("no balanced gate on the proof tree")
            left, right = node.children
            node = max(node.children, key=lambda w: (bin(w.var_mask).count("1"), w is left))
        if 3 * bin(node.var_mask).count("1") < total:
            raise ValueError("no balanced gate on the proof tree")
        rect = gate_rectangle(d, node.gate, trees)
        if not rect.is_balanced():
            raise AssertionError("descent stopped at an unbalanced gate")
        ms = rect.models()
        if a not in ms or not ms <= sat:
            raise AssertionError("cover rectangle is wrong")
        uncovered -= ms
        covered_union |= ms
        cover.append(rect)
        if len(cover) > d.node_count:
            raise AssertionError("cover larger than the circuit")
    if covered_union != sat:
        raise AssertionError("cover union differs from the model set")
    return cover


# --- certified lower bound ---------------------------------------------------


@dataclass
class LowerBoundCertificate:
    graph_hash: str
    n: int
    m: int
    treewidth: int
    tw_provenance: str
    bw_lower: int
    minor_n: int
    minor_m: int
    minor_max_degree: int
    minor_edges: tuple[tuple[int, int], ...]
    v_prime: tuple[int, ...]
    v_second: tuple[int, ...]
    v_star: tuple[int, ...]
    k: int
    cap_exponent: int
    bound: int


def graph_hash(g: Graph) -> str:
    return hashlib.sha256(graph_to_text(g).encode()).hexdigest()[:16]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def certified_lower_bound(g: Graph) -> LowerBoundCertificate:
    """Certificate that every complete DNNF computing a satisfiable
    formula on this graph needs at least 2^k gates.

    k follows the constant chain ceil(ceil(ceil(2 tw / 3) / (maxdeg + 1))
    / 3) evaluated on a treewidth-preserving 3-connected minor; treewidth
    below 3 yields the trivial certificate k = 0.  A sample adversary run
    on the caterpillar over the minor's `edge_order` is stored as the
    witness chain; the run fails unless its stages dominate the certified
    k.  k >= 2 needs treewidth >= 19 even at maximum degree 3, the least
    a 3-connected minor has.
    """
    if not is_connected(g):
        raise ValueError("graph must be connected")
    tw_lb, tw_ub, provenance = treewidth_bounds(g)
    tw = tw_lb
    if tw < 3:
        return LowerBoundCertificate(
            graph_hash=graph_hash(g), n=g.n, m=g.m, treewidth=tw, tw_provenance=provenance,
            bw_lower=_ceil_div(2 * tw, 3) if tw else 0,
            minor_n=g.n, minor_m=g.m, minor_max_degree=g.max_degree, minor_edges=g.edges,
            v_prime=(), v_second=(), v_star=(),
            k=0, cap_exponent=g.m - g.n + 1, bound=1,
        )
    minor = three_connected_minor(g)
    h = minor.graph
    delta = h.max_degree
    bw_lower = _ceil_div(2 * tw, 3)
    k = _ceil_div(_ceil_div(bw_lower, delta + 1), 3)
    sample = adam_response(h, caterpillar(edge_order(h)))
    if len(sample.v_star) < k:
        raise AssertionError("sample witness fell below the certified bound")
    return LowerBoundCertificate(
        graph_hash=graph_hash(g), n=g.n, m=g.m, treewidth=tw, tw_provenance=provenance,
        bw_lower=bw_lower,
        minor_n=h.n, minor_m=h.m, minor_max_degree=delta, minor_edges=h.edges,
        v_prime=sample.v_prime, v_second=sample.v_second, v_star=sample.v_star,
        k=k, cap_exponent=h.m - h.n - k + 1, bound=1 << k,
    )


def verify_certificate(cert: LowerBoundCertificate, g: Graph) -> tuple[bool, str]:
    """Re-check a certificate against its graph without re-running the
    heuristics: hash, treewidth (at desk scale), the witness-set chain on
    the stored minor, and the arithmetic."""
    if cert.graph_hash != graph_hash(g):
        return False, "graph hash mismatch"
    if (cert.n, cert.m) != (g.n, g.m):
        return False, "graph size mismatch"
    tw_lb, tw_ub, _ = treewidth_bounds(g)
    if not tw_lb <= cert.treewidth <= tw_ub:
        return False, "treewidth outside recomputed bounds"
    if cert.k == 0:
        if cert.bound != 1:
            return False, "trivial certificate must have bound 1"
        return True, "ok"
    if cert.minor_n > g.n or cert.minor_m > g.m:
        return False, "stored minor is larger than the graph"
    try:
        h = Graph(cert.minor_n, cert.minor_edges)
    except ValueError as exc:
        return False, f"stored minor is not a graph: {exc}"
    if h.m != cert.minor_m or h.max_degree != cert.minor_max_degree:
        return False, "minor header mismatch"
    if not is_3_connected(h):
        return False, "stored minor is not 3-connected"
    if h.n <= TREEWIDTH_EXACT_CAP and treewidth_bounds(h)[0] != cert.treewidth:
        return False, "minor treewidth differs from certified treewidth"
    if cert.bw_lower != _ceil_div(2 * cert.treewidth, 3):
        return False, "branchwidth stage arithmetic is wrong"
    if not set(cert.v_prime) <= set(range(h.n)):
        return False, "boundary vertex outside the minor"
    if not set(cert.v_second) <= set(cert.v_prime):
        return False, "independent set not inside the boundary"
    if not set(cert.v_star) <= set(cert.v_second):
        return False, "safe subset not inside the independent set"
    for i, u in enumerate(cert.v_second):
        for w in cert.v_second[i + 1:]:
            if w in h.adj[u]:
                return False, "witness set is not independent"
    if len(cert.v_prime) < cert.bw_lower:
        return False, "boundary smaller than the branchwidth stage"
    if len(cert.v_second) < _ceil_div(len(cert.v_prime), cert.minor_max_degree + 1):
        return False, "independent stage too small"
    if len(cert.v_star) < _ceil_div(len(cert.v_second), 3):
        return False, "safe stage too small"
    k = _ceil_div(_ceil_div(cert.bw_lower, cert.minor_max_degree + 1), 3)
    if cert.k != k or len(cert.v_star) < k:
        return False, "k disagrees with the constant chain"
    if cert.cap_exponent + cert.k != cert.minor_m - cert.minor_n + 1:
        return False, "cap and bound exponents do not add up"
    if cert.bound != 1 << cert.k:
        return False, "bound is not 2^k"
    return True, "ok"


# --- certificate text format -------------------------------------------------

_CERT_FIELDS = [
    "graph_hash", "n", "m", "treewidth", "tw_provenance", "bw_lower",
    "minor_n", "minor_m", "minor_max_degree", "minor_edges",
    "v_prime", "v_second", "v_star", "k", "cap_exponent", "bound",
]


def certificate_to_text(cert: LowerBoundCertificate) -> str:
    lines = []
    for name in _CERT_FIELDS:
        value = getattr(cert, name)
        if name == "minor_edges":
            value = " ".join(f"{u}-{v}" for u, v in value)
        elif isinstance(value, tuple):
            value = " ".join(str(x) for x in value)
        lines.append(f"{name}: {value}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> LowerBoundCertificate:
    fields: dict[str, Line] = {}
    for ln in records(text):
        name, _, value = ln.text.partition(":")
        fields[name.strip()] = Line(ln.number, value.strip(), value.split())
    missing = [f for f in _CERT_FIELDS if f not in fields]
    if missing:
        raise ValueError(f"certificate missing fields: {missing}")

    def ints(name):
        return tuple(fields[name].ints(start=0))

    def one(name):
        return fields[name].ints(1, start=0)[0]

    edges = []
    for pair in fields["minor_edges"].fields:
        ends = Line(fields["minor_edges"].number, pair, pair.split("-"))
        edges.append(tuple(ends.ints(2, start=0)))
    return LowerBoundCertificate(
        graph_hash=fields["graph_hash"].text,
        n=one("n"), m=one("m"),
        treewidth=one("treewidth"), tw_provenance=fields["tw_provenance"].text,
        bw_lower=one("bw_lower"),
        minor_n=one("minor_n"), minor_m=one("minor_m"),
        minor_max_degree=one("minor_max_degree"),
        minor_edges=tuple(edges),
        v_prime=ints("v_prime"), v_second=ints("v_second"), v_star=ints("v_star"),
        k=one("k"), cap_exponent=one("cap_exponent"), bound=one("bound"),
    )
