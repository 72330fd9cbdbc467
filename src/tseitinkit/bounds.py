"""The certified DNNF lower-bound chain and the adversary behind it.

The adversary answers a cut of the edges, given by its side E1 (in the
paper, the maximum-order cut of a variable tree), with the cut's
boundary, an independent subset of it, and a safe-split subset of that.
On a 3-connected graph this caps every rectangle for the cut at
2^(m - n - k + 1) models; with 2^(m - n + 1) models in total any cover,
and so any complete DNNF, needs 2^k of them.  The certificate runs the
adversary once on a 3-connected minor, on the cut `order_cut` sweeps
from the minor's `edge_order`, as a witness and stores it with k;
`verify_certificate` re-derives the constant chain that bounds k from
below and re-checks the witness without the heuristics.  The rectangle
and cover-game lemmas are checked by enumeration in the test suite
(`tests/lemmas.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

try:  # hashlib loads OpenSSL's libcrypto; the builtin module is lean
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .graphs import Graph, SplitRequest, graph_to_text, greedy_independent_set, is_3_connected, safe_split_subset
from .minors import three_connected_minor
from .textformat import error, ints, lines_of, once
from .width import edge_order, order_cut, treewidth_estimate


@dataclass
class AdamResponse:
    e1: tuple[int, ...]
    v_prime: tuple[int, ...]
    v_second: tuple[int, ...]
    v_star: tuple[int, ...]
    requests: dict[int, SplitRequest]
    cap_exponent: int


def adam_response(g: Graph, e1: tuple[int, ...]) -> AdamResponse:
    """Adversary strategy on a 3-connected graph for the cut with edge
    side e1.

    Takes the cut's boundary (the vertices with some but not all of their
    incident edges in e1), an independent subset of it, and the safe-split
    subset of that along the neighbor partitions the cut induces; the cap
    exponent is m - n - |V*| + 1.
    """
    if not is_3_connected(g):
        raise ValueError("adversary strategy needs a 3-connected graph")
    inside = set(e1)
    v_prime = tuple(v for v, inc in enumerate(g.incident) if 0 < sum(e in inside for e in inc) < len(inc))
    v_second = greedy_independent_set(g, v_prime)
    requests = {}
    for v in v_second:
        n1 = tuple(sorted(g.other_end(e, v) for e in g.incident[v] if e in inside))
        n2 = tuple(sorted(set(g.adj[v]) - set(n1)))
        requests[v] = SplitRequest(v, n1, n2)
    chosen = safe_split_subset(g, [requests[v] for v in v_second])
    v_star = tuple(sorted(r.vertex for r in chosen))
    cap = g.m - g.n - len(v_star) + 1
    return AdamResponse(e1, v_prime, tuple(v_second), v_star, requests, cap)


# --- certified lower bound ---------------------------------------------------


@dataclass
class LowerBoundCertificate:
    graph_hash: str
    minor_n: int
    minor_edges: tuple[tuple[int, int], ...]
    v_prime: tuple[int, ...]
    v_second: tuple[int, ...]
    v_star: tuple[int, ...]
    k: int


def graph_hash(g: Graph) -> str:
    """The first 16 hex digits of the SHA-256 of `graph_to_text(g)`,
    which ties a certificate to its graph.

    The digest comes from the interpreter's builtin SHA-256, the same
    algorithm as `hashlib.sha256`: importing `hashlib` maps OpenSSL's
    libcrypto, about 3.7 MB resident in every process, to hash a few
    hundred bytes.
    """
    return sha256(graph_to_text(g).encode()).hexdigest()[:16]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _chain(tw: int, max_degree: int) -> tuple[int, int]:
    """The constant chain from treewidth tw on a minor of maximum degree
    max_degree: the branchwidth bw = ceil(2 tw / 3), the least size of
    the boundary V' of the maximum-order cut, and
    k = ceil(ceil(bw / (max_degree + 1)) / 3), the least size of its safe
    splits V*, since |V''| >= |V'| / (max_degree + 1) and
    |V*| >= |V''| / 3."""
    bw = _ceil_div(2 * tw, 3)
    return bw, _ceil_div(_ceil_div(bw, max_degree + 1), 3)


def certified_lower_bound(g: Graph) -> LowerBoundCertificate:
    """Certificate that every complete DNNF computing a satisfiable
    formula on this graph needs at least 2^k gates.

    k follows the constant chain ceil(ceil(ceil(2 tw / 3) / (maxdeg + 1))
    / 3) on the 3-connected topological minor h the reduction leaves, with
    tw = `treewidth_estimate(h)`, the value the reduction ranks sides by; the
    bound carries to g because deleting an edge conditions a variable and
    smoothing a subdivision vertex forgets one, and neither grows a DNNF.
    A reduction that ends below 4 vertices, as it does on every graph of
    treewidth below 3, leaves a minor that is not 3-connected: the
    certificate stores it with k = 0.  A sample adversary run on the cut
    `order_cut` sweeps from the minor's `edge_order` is stored as the
    witness chain; the run fails unless its stages dominate the certified
    k.  k >= 2 needs treewidth >= 19 even at maximum degree 3, the least a
    3-connected minor has.
    """
    h = three_connected_minor(g).graph  # raises on a disconnected graph
    k, v_prime, v_second, v_star = 0, (), (), ()
    if is_3_connected(h):  # the reduction's last search is h's separator memo
        _, k = _chain(treewidth_estimate(h)[0], h.max_degree)
        sample = adam_response(h, order_cut(h, edge_order(h)))
        v_prime, v_second, v_star = sample.v_prime, sample.v_second, sample.v_star
        if len(v_star) < k:
            raise AssertionError("sample witness fell below the certified bound")
    return LowerBoundCertificate(graph_hash(g), h.n, h.edges, v_prime, v_second, v_star, k)


def verify_certificate(cert: LowerBoundCertificate, g: Graph) -> tuple[bool, str]:
    """Re-check a certificate against its graph without re-running the
    heuristics: the hash, the witness-set chain on the stored minor, and
    k against the constant chain, whose treewidth (`treewidth_estimate`
    of the minor, exact at desk scale), branchwidth stage and maximum
    degree are derived here from the stored minor; a minor that is not
    3-connected gives k = 0.  Of g only the hash and the sizes are read.

    The certificate stores neither an embedding of the minor in g nor the
    cut, so three things are taken on trust:

    * that the stored graph is a topological minor of g: only its sizes,
      `minor_n` and its edge count, are compared with g's, and the
      transfer of the minor's bound to g rests on it;
    * that `v_prime` is the boundary of a cut (it is only a set of
      distinct minor vertices);
    * that splitting the vertices of `v_star` keeps the minor connected.
    """
    if cert.graph_hash != graph_hash(g):
        return False, "graph hash mismatch"
    if cert.minor_n > g.n or len(cert.minor_edges) > g.m:
        return False, "stored minor is larger than the graph"
    try:
        h = Graph(cert.minor_n, cert.minor_edges)
    except ValueError as exc:
        return False, f"stored minor is not a graph: {exc}"
    if not is_3_connected(h):  # the chain is k = 0 there
        return (True, "ok") if cert.k == 0 else (False, "stored minor is not 3-connected")
    if any(len(set(vs)) != len(vs) for vs in (cert.v_prime, cert.v_second, cert.v_star)):
        return False, "witness set repeats a vertex"
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
    bw, k = _chain(treewidth_estimate(h)[0], h.max_degree)
    if len(cert.v_prime) < bw:
        return False, "boundary smaller than the branchwidth stage"
    if len(cert.v_second) < _ceil_div(len(cert.v_prime), h.max_degree + 1):
        return False, "independent stage too small"
    if len(cert.v_star) < _ceil_div(len(cert.v_second), 3):
        return False, "safe stage too small"
    if cert.k != k:  # the stages above already give |V*| >= k
        return False, "k disagrees with the constant chain"
    return True, "ok"


# --- certificate text format -------------------------------------------------

_CERT_FIELDS = [f.name for f in fields(LowerBoundCertificate)]


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
    first: dict[str, int] = {}  # field name -> its line index
    found: dict[str, str] = {}  # field name -> value text
    lines, rows = lines_of(text)
    for i, fields in rows:
        if not fields or fields[0][0] == "#":
            continue
        name, _, value = lines[i].partition(":")
        name = name.strip()
        if name not in _CERT_FIELDS:
            raise error(lines, i, f"unknown field {name!r}")
        once(lines, i, first, name, f"repeated field {name}")
        found[name] = value
    missing = [f for f in _CERT_FIELDS if f not in found]
    if missing:
        raise ValueError(f"certificate missing fields: {missing}")

    def numbers(name, count=None):
        return ints(lines, first[name], found[name].split(), count, found[name])

    def one(name):
        return numbers(name, 1)[0]

    i = first["minor_edges"]
    edges = [tuple(ints(lines, i, pair.split("-"), 2, pair)) for pair in found["minor_edges"].split()]
    return LowerBoundCertificate(
        graph_hash=found["graph_hash"].strip(), minor_n=one("minor_n"), minor_edges=tuple(edges),
        v_prime=tuple(numbers("v_prime")), v_second=tuple(numbers("v_second")), v_star=tuple(numbers("v_star")),
        k=one("k"),
    )
