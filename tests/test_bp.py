import random
import zlib

import pytest

from lemmas import annotation_sets, bits, make_annotation, reference_expected_children, validate_read_once, violated_at
from mutations import mutate_bp
from tseitinkit import families as fam
from tseitinkit.bp import (
    BranchingProgram,
    bp_from_text,
    bp_to_text,
    build_well_structured_bp,
    expected_children,
    validate_well_structured,
)
from tseitinkit.compiler import compile_bp_to_dnnf
from tseitinkit.graphs import Graph
from tseitinkit.oracles import bp_semantics_hold, eval_bp
from tseitinkit.tseitin import TseitinFormula, is_satisfiable, unit_charge
from tseitinkit.width import edge_order, order_bound


SINGLE_EDGE_BP = BranchingProgram(
    source=2,
    decisions={2: (0, 0, 1)},
    sinks={0: 0, 1: 1},
)


class TestEval:
    def test_single_edge_zero(self):
        assert eval_bp(SINGLE_EDGE_BP, 0b0) == 0

    def test_single_edge_one(self):
        assert eval_bp(SINGLE_EDGE_BP, 0b1) == 1

    def test_builder_output_computes_relation(self):
        g = fam.cycle(3)
        c = (1, 0, 0)
        bp = build_well_structured_bp(g, c)
        for mask in range(8):
            v = eval_bp(bp, mask)
            assert violated_at(TseitinFormula(g, c), mask, v)


class TestSearchVertexRelation:
    def test_examples(self):
        g = fam.cycle(3)
        assert violated_at(TseitinFormula(g, (1, 0, 0)), 0, 0)
        assert not violated_at(TseitinFormula(g, (1, 0, 0)), 0, 1)

    def test_unsat_always_has_witness(self, bench_graph):
        _, g = bench_graph
        t = TseitinFormula(g, unit_charge(g.n, 0))
        if is_satisfiable(t) or g.m > 12:
            return
        for mask in range(1 << g.m):
            assert any(violated_at(t, mask, v) for v in range(g.n))


# C3 (edges 0 = 01, 1 = 12, 2 = 02) with the charge odd at 0: the source 3
# decides edge 0, its 1-child 4 is a correct program for the rest, and its
# 0-child 2 decides edge 0 again
REREAD_C3 = BranchingProgram(
    source=3,
    decisions={3: (0, 2, 4), 2: (0, 0, 1), 4: (1, 1, 5), 5: (2, 6, 0)},
    sinks={0: 0, 1: 1, 6: 2},
)


class TestReadOnce:
    """`lemmas.validate_read_once`, the path-wise check that condition 3
    of the well-structured validator implies."""

    def test_single_decision(self):
        assert validate_read_once(SINGLE_EDGE_BP)

    def test_repeat_variable_rejected(self):
        b = BranchingProgram(
            source=3,
            decisions={3: (0, 2, 4), 2: (0, 0, 1)},
            sinks={0: 0, 1: 1, 4: 1},
        )
        assert not validate_read_once(b)

    def test_builder_outputs(self, bench_graph):
        _, g = bench_graph
        bp = build_well_structured_bp(g, unit_charge(g.n, 0))
        assert validate_read_once(bp)

    @pytest.mark.parametrize("b", [REREAD_C3, *(BranchingProgram(2, {2: (var, 0, 1)}, {0: 0, 1: 1}) for var in (-1, 3))],
                             ids=["reread", "var-1", "var3"])
    def test_node_named_by_condition_3(self, b):
        # a re-read and a variable outside 0..m-1 both fail at node 2
        var = b.decisions[2][0]
        result = validate_well_structured(b, fam.cycle(3), (1, 0, 0))
        assert (result.error, result.node) == (f"condition 3: decision edge {var} not in the annotated subgraph", 2)

    @pytest.mark.parametrize("vertex", [-1, 2, 3, 10**12])
    def test_sink_vertex_checked_by_condition_2(self, vertex):
        # on the single edge 01 with the charge odd at 0, the 0-wire must
        # end at vertex 0; another vertex, or one outside the graph, fails
        # condition 2 at that sink; a huge one is refused before any mask
        # is shifted by it
        b = BranchingProgram(2, {2: (0, 0, 1)}, {0: vertex, 1: 1})
        result = validate_well_structured(b, fam.path(2), (1, 0))
        assert (result.ok, result.error, result.node) == (False, "condition 2: sink annotation must be its unit-charged vertex", 0)

    def test_mutants_it_rejects_are_not_well_structured(self, bench_graph):
        # condition 3 implies read-once, so every mutant that re-reads a
        # variable on some path fails the one-pass validator at a node
        name, g = bench_graph
        bp = build_well_structured_bp(g, unit_charge(g.n, 0))
        rng = random.Random(zlib.crc32(f"reread-{name}".encode()))
        rejected = 0
        for _ in range(200):
            try:
                mutant = mutate_bp(bp, g, rng)
            except ValueError:
                continue  # the redirect closed a cycle
            if validate_read_once(mutant):
                continue
            rejected += 1
            for c in (unit_charge(g.n, v) for v in range(g.n)):
                result = validate_well_structured(mutant, g, c)
                assert not result.ok and result.node is not None, bp_to_text(mutant)
        assert rejected > 0 or g.m == 1  # one edge: only a cycle re-reads it


class TestWellStructured:
    def test_builder_output_c3(self):
        g = fam.cycle(3)
        bp = build_well_structured_bp(g, (1, 0, 0))
        assert validate_well_structured(bp, g, (1, 0, 0)).ok

    def test_disconnected_graph_rejected(self):
        # the single-edge program checked against an edge plus a second,
        # separate edge: the source's annotation is the whole graph
        g = Graph(4, ((0, 1), (2, 3)))
        result = validate_well_structured(SINGLE_EDGE_BP, g, (1, 0, 0, 0))
        assert (result.ok, result.error, result.node) == (False, "annotated subgraph is not connected", 2)

    def test_id_both_decision_and_sink_rejected(self):
        with pytest.raises(ValueError, match=r"^ids used as both decision and sink: \[1\]$"):
            BranchingProgram(source=2, decisions={2: (0, 0, 1), 1: (0, 0, 0)}, sinks={0: 0, 1: 1})

    def test_other_unit_charge_rejected(self, bench_graph):
        # the source is annotated with the charge validated against, so a
        # program built for another charge fails further down
        _, g = bench_graph
        bp = build_well_structured_bp(g, unit_charge(g.n, 0))
        for v in range(1, g.n):
            result = validate_well_structured(bp, g, unit_charge(g.n, v))
            assert not result.ok
            assert result.annotations is None
            assert result.error.startswith(("condition 2", "condition 3"))

    def test_shared_child_forced_twice(self):
        # C3 has edges 0 = 01, 1 = 12, 2 = 02; the charge is odd at 0.  The
        # source 10 decides edge 0 and its 1-child 11 decides edge 1.  Both
        # 0-wires lead to node 12: node 10 forces it to C3 - 01 with the
        # charge at 0, node 11 to the lone vertex 1.
        g = fam.cycle(3)
        c = (1, 0, 0)
        b = BranchingProgram(
            source=10,
            decisions={10: (0, 12, 11), 11: (1, 12, 0), 12: (2, 1, 2)},
            sinks={0: 0, 1: 1, 2: 2},
        )
        result = validate_well_structured(b, g, c)
        assert not result.ok
        assert result.error == "condition 3: 0-child annotation mismatch"
        assert result.node == 11
        assert result.annotations is None

    def test_bridge_sends_children_to_odd_components(self):
        # two dense blocks joined by the bridge (2,4): conditioning with 0
        # leaves the triangle odd, conditioning with 1 leaves the block of
        # four odd
        edges = [
            (0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3),  # 4-block
            (2, 4),                                          # bridge a=2, b=4
            (4, 5), (5, 6), (4, 6),                          # triangle
        ]
        g = Graph(7, tuple(edges))
        charge = (0, 1, 0, 1, 1, 0, 0)
        assert not is_satisfiable(TseitinFormula(g, charge))
        source = (0b1111111, (1 << 10) - 1, 0b0011010)  # charge odd at 1, 3, 4
        child0, child1 = expected_children(g, source, 6, {})
        assert child0 == (0b1110000, 0b1110000000, 0b0010000)  # {4, 5, 6}, edges 7-9, odd at 4
        assert child1 == (0b0001111, 0b0000111111, 0b0001110)  # {0, 1, 2, 3}, edges 0-5, odd at 1, 2, 3

    def test_family_builder_outputs(self, bench_graph):
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        result = validate_well_structured(bp, g, c)
        assert result.ok, (result.error, result.node)
        assert sorted(result.annotations) == sorted(bp.topological())

    def test_sinks_unique_per_vertex(self, bench_graph):
        _, g = bench_graph
        bp = build_well_structured_bp(g, unit_charge(g.n, 0))
        vertices = list(bp.sinks.values())
        assert len(vertices) == len(set(vertices))

    def test_memo_soundness(self, bench_graph):
        # the builder's memo is keyed on the annotation, so no two nodes of
        # its program are forced to the same one
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        ann = validate_well_structured(bp, g, c).annotations
        assert len(set(ann.values())) == len(ann) == bp.size


def random_odd_instance(seed: int) -> tuple[Graph, tuple[int, ...]]:
    """A random spanning tree on 2..14 vertices plus random chords, and a
    random charge of odd total."""
    rng = random.Random(zlib.crc32(f"mask {seed}".encode()))
    n = rng.randint(2, 14)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    charge = [rng.randint(0, 1) for _ in range(n)]
    if sum(charge) % 2 == 0:
        charge[rng.randrange(n)] ^= 1
    return Graph(n, tuple(sorted(edges))), tuple(charge)


class TestMasksAgainstReference:
    """`expected_children` on masks against the set-form reference in
    `lemmas`, on every edge of every annotation the validator derives."""

    def check(self, g, c):
        bp = build_well_structured_bp(g, c)
        annotations = validate_well_structured(bp, g, c).annotations
        compared = 0
        for ann in annotations.values():
            sets = annotation_sets(ann)
            for var in bits(ann[1]):
                children = expected_children(g, ann, var, {})
                assert tuple(annotation_sets(child) for child in children) == reference_expected_children(g, sets, var)
                assert all(charge & ~vertices == 0 for vertices, _, charge in children)  # decoding reads V_u's bits only
                compared += 1
        assert compared >= g.m

    @pytest.mark.parametrize("block", range(4))
    def test_random_connected_graphs(self, block):
        for seed in range(25 * block, 25 * block + 25):
            self.check(*random_odd_instance(seed))

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        for v in range(g.n):
            self.check(g, unit_charge(g.n, v))

    def test_same_errors(self):
        g, c = random_odd_instance(0)
        bp = build_well_structured_bp(g, c)
        root = validate_well_structured(bp, g, c).annotations[bp.source]
        even = (root[0], root[1], root[2] ^ 1)
        for ann, var in [(root, -1), (root, g.m), (even, 0)]:
            with pytest.raises(ValueError) as got:
                expected_children(g, ann, var, {})
            with pytest.raises(ValueError) as want:
                reference_expected_children(g, annotation_sets(ann), var)
            assert str(got.value) == str(want.value)


class TestSplitMemo:
    """The builder and the validator each run `_sides` once per distinct
    (vertex mask, edge mask, edge), and the memo holds no charge."""

    @pytest.fixture
    def splits_searched(self, monkeypatch):
        import tseitinkit.bp

        searched = []
        real = tseitinkit.bp._sides

        def counted(g, vertices, rest, a, b):
            searched.append((vertices, rest, a, b))
            return real(g, vertices, rest, a, b)

        monkeypatch.setattr(tseitinkit.bp, "_sides", counted)
        return searched

    def test_one_search_per_distinct_split(self, splits_searched):
        g = fam.grid(5, 5)
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        assert len(splits_searched) == len(set(splits_searched)) == 40
        assert len(bp.decisions) == 377  # one search per decision without the memo
        splits_searched.clear()
        result = validate_well_structured(bp, g, c)
        assert result.ok
        assert len(splits_searched) == len(set(splits_searched)) == 40
        assert len({(ann[0], ann[1], bp.decisions[u][0]) for u, ann in result.annotations.items() if u in bp.decisions}) == 40

    def test_validator_searches_anew_per_call(self, splits_searched):
        g = fam.cycle(5)
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        splits_searched.clear()
        validate_well_structured(bp, g, c)
        once = len(splits_searched)
        validate_well_structured(bp, g, c)
        assert len(splits_searched) == 2 * once > 0

    @pytest.mark.parametrize("name, g", [("grid3x3", fam.grid(3, 3)), ("grid5x5", fam.grid(5, 5)), ("rr16", fam.random_regular(16, 3, 1))])
    def test_charge_siblings_sharing_a_split_are_told_apart(self, name, g):
        # u copies the decision and children of an earlier node v with the
        # same (V_u, E_u, e) and another charge: a memo that kept children
        # rather than components would force u's children to v's and
        # accept; the validator must refuse at u
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        annotations = validate_well_structured(bp, g, c).annotations
        first: dict = {}
        for u in reversed(bp.topological()):
            if u not in bp.decisions:
                continue
            vertices, edge_ids, _ = annotations[u]
            v = first.setdefault((vertices, edge_ids, bp.decisions[u][0]), u)
            if v == u:
                continue
            corrupt = BranchingProgram(bp.source, {**bp.decisions, u: bp.decisions[v]}, bp.sinks)
            order = list(reversed(corrupt.topological()))
            if u not in order or order.index(v) > order.index(u):
                continue
            forced = expected_children(g, annotations[u], bp.decisions[u][0], {})
            literal = next(lit for lit in (0, 1) if annotations[bp.decisions[v][1 + lit]] != forced[lit])
            result = validate_well_structured(corrupt, g, c)
            assert not result.ok
            assert (result.node, result.error) == (u, f"condition 3: {literal}-child annotation mismatch")
            break
        else:
            pytest.fail(f"{name}: no two charge siblings share a split")


class TestSweepOracle:
    """The brute-force sweep against the structural validator."""

    def test_family_builder_outputs(self, bench_graph):
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        assert bp_semantics_hold(bp, g, c, validate_well_structured(bp, g, c).annotations)

    def test_accepted_mutants_pass_sweep(self, bench_graph):
        name, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        rng = random.Random(zlib.crc32(name.encode()))
        compared = rejected = 0
        while compared < 40:
            try:
                mutant = mutate_bp(bp, g, rng)
            except ValueError:
                continue  # the redirect closed a cycle
            result = validate_well_structured(mutant, g, c)
            # a validator that ran the sweep after the conditions would
            # give the same verdict; the sweep alone may still accept a
            # redundant re-read, which condition 3 rejects
            if result.ok:
                assert bp_semantics_hold(mutant, g, c, result.annotations), bp_to_text(mutant)
            compared += 1
            rejected += not result.ok
        assert rejected > 0

    def test_sink_outside_its_annotation_fails_sweep(self):
        # the single edge 01 with the charge odd at 0: the 0-wire's sink
        # names vertex 0, which an annotation claiming only vertex 1
        # excludes, although the charge it leaves at 0 is violated there
        g = fam.path(2)
        ann = validate_well_structured(SINGLE_EDGE_BP, g, (1, 0)).annotations
        assert bp_semantics_hold(SINGLE_EDGE_BP, g, (1, 0), ann)
        assert not bp_semantics_hold(SINGLE_EDGE_BP, g, (1, 0), {**ann, 0: (0b10, 0, 0b01)})

    def test_wrong_source_annotation_fails_sweep(self):
        g = fam.cycle(3)
        bp = build_well_structured_bp(g, (1, 0, 0))
        ann = validate_well_structured(bp, g, (1, 0, 0)).annotations
        assert not bp_semantics_hold(bp, g, (0, 1, 0), ann)


class TestDeepPrograms:
    def test_chain_deeper_than_recursion_limit(self):
        # path 0-1-...-1500 with edge i = (i, i+1), charge odd at 0: node i
        # decides edge i, its 0-wire ends at vertex i and its 1-wire moves
        # the odd charge to vertex i+1
        n = 1501
        g = fam.path(n)
        decisions = {i: (i, n + i, i + 1) for i in range(n - 1)}
        decisions[n - 2] = (n - 2, 2 * n - 2, 2 * n - 1)
        bp = BranchingProgram(0, decisions, {n + v: v for v in range(n)})
        c = unit_charge(n, 0)
        assert len(bp.topological()) == bp.size == 2 * n - 1
        assert validate_well_structured(bp, g, c).ok
        # every decision on a path decides a bridge with a sink on its
        # 0-wire: one AND each (the literal and the rest of the chain),
        # except the last, whose children are both sinks: its literal alone
        assert compile_bp_to_dnnf(bp, g, c, 0).size == len(decisions) - 1 == 1499

    def test_builder_deeper_than_recursion_limit(self):
        # breadth-first from the end vertex 0 ranks a path's edges by id, so
        # the program for a path is a chain one level per edge
        n = 1200
        g = fam.path(n)
        c = unit_charge(n, 0)
        bp = build_well_structured_bp(g, c)
        assert bp.size == 2 * n - 1
        assert len(bp.topological()) == bp.size
        assert bp.decisions[bp.source][0] == 0
        assert compile_bp_to_dnnf(bp, g, c, 0).size == len(bp.decisions) - 1 == 1198


class TestBuilderSizes:
    def test_single_edge(self):
        g = fam.path(2)
        bp = build_well_structured_bp(g, (1, 0))
        assert bp.size == 3
        assert eval_bp(bp, 0b0) == 0
        assert eval_bp(bp, 0b1) == 1

    def test_c3_size(self):
        bp = build_well_structured_bp(fam.cycle(3), (1, 0, 0))
        assert bp.size <= 9

    def test_cycles_linear(self):
        for n in range(4, 9):
            bp = build_well_structured_bp(fam.cycle(n), unit_charge(n, 0))
            assert bp.size <= 6 * n

    def test_ids_in_preorder(self, bench_graph):
        # ids count up in depth-first order, the 0-child's subprogram
        # before the 1-child's, which keeps bp_to_text stable
        _, g = bench_graph
        bp = build_well_structured_bp(g, unit_charge(g.n, 0))
        order, stack = [], [bp.source]
        while stack:
            u = stack.pop()
            if u not in order:
                order.append(u)
                if u in bp.decisions:
                    _, lo, hi = bp.decisions[u]
                    stack += [hi, lo]
        assert order == list(range(bp.size))

    def test_desk_sizes_pinned(self, bench_graph):
        # Sizes under today's decision rule (the lowest-ranked edge of
        # width.edge_order); a rule that changes them has to update this
        # table on purpose.
        sizes = {
            "C3": 8, "C4": 11, "C5": 14, "C6": 17, "P2": 3, "P3": 5, "P4": 7, "P5": 9,
            "K4": 21, "K5": 54, "W4": 30, "grid2x3": 19, "grid3x3": 46, "Q3": 69,
            "bowtie": 15, "twoK4": 39,
        }
        name, g = bench_graph
        bp = build_well_structured_bp(g, unit_charge(g.n, 0))
        assert bp.size == sizes[name]

    @pytest.mark.parametrize("g", [fam.grid(4, 4), fam.cycle(20)], ids=["grid4x4", "C20"])
    def test_one_decision_per_edge_set(self, g):
        # the decision edge depends on the annotated edge set alone, so
        # nodes that share an edge set under different charges query the
        # same edge
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        ann = validate_well_structured(bp, g, c).annotations
        decided = {}
        for u, (var, _, _) in bp.decisions.items():
            assert decided.setdefault(ann[u][1], var) == var
        assert len(decided) < len(bp.decisions)

    def test_satisfiable_rejected(self):
        with pytest.raises(ValueError):
            build_well_structured_bp(fam.cycle(3), (0, 0, 0))

    def test_disconnected_rejected(self):
        g = Graph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            build_well_structured_bp(g, (1, 0, 0, 0))


def naive_order_bound(g: Graph, order) -> int:
    """n + the sum of 2^max(|dC| - 1, 0) over every distinct component C
    of the edges ranked above r, for every r from -1 up, where dC holds
    the vertices of C that touch an edge ranked at most r.  Recomputes
    `order_bound` without its sweep."""
    rank = {e: r for r, e in enumerate(order)}
    boundary = {}  # component edge set -> |dC|
    for r in range(-1, g.m):
        left = {e for e in range(g.m) if rank[e] > r}
        while left:
            stack = [left.pop()]
            comp = set(stack)
            while stack:
                for v in g.edges[stack.pop()]:
                    for f in g.incident[v]:
                        if f in left:
                            left.remove(f)
                            comp.add(f)
                            stack.append(f)
            verts = {v for e in comp for v in g.edges[e]}
            size = sum(1 for v in verts if any(rank[f] <= r for f in g.incident[v]))
            assert boundary.setdefault(frozenset(comp), size) == size
    return g.n + sum(1 << max(size - 1, 0) for size in boundary.values())


MIDDLE_TIER = {
    "grid3x6": lambda: fam.grid(3, 6),
    "grid4x4": lambda: fam.grid(4, 4),
    "grid5x5": lambda: fam.grid(5, 5),
    "Q4": lambda: fam.cube(4),
    "rr16": lambda: fam.random_regular(16, 3, 1),
    "W12": lambda: fam.wheel(12),
    "C60": lambda: fam.cycle(60),
}
NARROW_GRIDS = {f"grid{rows}x{cols}": (rows, cols) for rows in (2, 3) for cols in range(2, 17)}


class TestSizeBound:
    """The builder's size against order_bound, recomputed naively."""

    def check(self, g: Graph):
        order = edge_order(g)
        bound = naive_order_bound(g, order)
        assert order_bound(g, order) == bound
        assert build_well_structured_bp(g, unit_charge(g.n, 0)).size <= bound

    def test_desk_family(self, bench_graph):
        _, g = bench_graph
        self.check(g)

    @pytest.mark.parametrize("name", MIDDLE_TIER)
    def test_middle_tier(self, name):
        self.check(MIDDLE_TIER[name]())

    @pytest.mark.parametrize("name", NARROW_GRIDS)
    def test_narrow_grids(self, name):
        self.check(fam.grid(*NARROW_GRIDS[name]))

    @pytest.mark.parametrize("seed", range(20))
    def test_sweep_on_random_orders(self, seed):
        # any order, not only the chosen one: the sweep equals the naive count
        rng = random.Random(zlib.crc32(f"order-{seed}".encode()))
        g = fam.random_regular(rng.choice([8, 10, 12]), 3, seed)
        order = list(range(g.m))
        rng.shuffle(order)
        assert order_bound(g, order) == naive_order_bound(g, order)

    def test_three_row_grids_grow_linearly(self):
        # tw 3: the old per-subgraph heuristic grew exponentially here
        # (3x4 95, 3x8 1313, 3x12 23753 nodes)
        size = {cols: build_well_structured_bp(fam.grid(3, cols), unit_charge(3 * cols, 0)).size for cols in (4, 16)}
        assert size[16] <= 5 * size[4]


class TestAnnotationInference:
    def test_matches_builder(self, bench_graph):
        # every decision queries the lowest-ranked edge of its derived
        # annotation in the graph's one edge order
        _, g = bench_graph
        c = unit_charge(g.n, 0)
        bp = build_well_structured_bp(g, c)
        ann = validate_well_structured(bp, g, c).annotations
        rank = {e: r for r, e in enumerate(edge_order(g))}
        for u, (var, _, _) in bp.decisions.items():
            assert var == min(bits(ann[u][1]), key=rank.__getitem__)


class TestBpText:
    def test_round_trip(self, bench_graph):
        _, g = bench_graph
        bp = build_well_structured_bp(g, unit_charge(g.n, 0))
        text = bp_to_text(bp)
        back = bp_from_text(text)
        assert bp_to_text(back) == text
        assert back.source == bp.source
        assert back.decisions == bp.decisions
        assert back.sinks == bp.sinks

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            bp_from_text("node 0 1 0 0\n")  # missing source, cyclic
