"""Signed circuits, barbells, admissibility, bridges, star cuts, 3-edge-colouring."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from signedflow import structure
from signedflow.core import (
    Edge,
    SignedGraph,
    _spread_potential,
    _tree_bridges,
    find_bridges,
    is_balanced,
    switch,
)
from signedflow.errors import InvariantViolation, PreconditionError, ResourceCapExceeded
from signedflow.corpus import enumerate_signed_graphs, g_family, random_signed_graph, signed_petersen
from signedflow.solve import find_nz_k_flow, find_nz_zk_flow, flow_numbers
from signedflow.verify_suites import SUITES, run_suite
from signedflow.structure import (
    classify_signed_circuit,
    enumerate_circuits,
    find_long_barbell,
    find_signed_circuit,
    has_star_cut,
    is_flow_admissible,
    three_edge_coloring,
)


def cycle(n, signs=None):
    signs = signs or [1] * n
    return SignedGraph(n, tuple(Edge(i, (i + 1) % n, signs[i]) for i in range(n)))


# ---------------------------------------------------------------------------
# classify_signed_circuit


def test_classify_even_positive_circuit():
    g = cycle(4)
    w = classify_signed_circuit(g, range(4))
    assert w.kind == "balanced-circuit"


def test_classify_short_barbell():
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    w = classify_signed_circuit(g, [0, 1])
    assert w.kind == "short-barbell"


def test_classify_long_barbell_loops_and_path():
    # two negative loops joined by a two-edge path
    g = SignedGraph(
        3,
        (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1)),
    )
    w = classify_signed_circuit(g, range(4))
    assert w.kind == "long-barbell"
    assert sorted(w.path) == [2, 3]


def test_classify_odd_positive_circuit_is_balanced():
    # balance is about negative-edge parity, not length
    w = classify_signed_circuit(cycle(3), range(3))
    assert w is not None and w.kind == "balanced-circuit"


def test_classify_rejects_lone_unbalanced_circuit():
    # a single unbalanced circuit is not a signed circuit by itself
    assert classify_signed_circuit(cycle(3, [-1, 1, 1]), range(3)) is None


def test_classify_rejects_unknown_edge():
    with pytest.raises(PreconditionError):
        classify_signed_circuit(cycle(3), [0, 9])


# ---------------------------------------------------------------------------
# long barbell search


def test_petersen_has_no_long_barbell():
    assert find_long_barbell(signed_petersen()) is None


def test_g1_has_long_barbell():
    w = find_long_barbell(g_family(1))
    assert w is not None and w.kind == "long-barbell"


def test_all_positive_never_barbell():
    assert find_long_barbell(cycle(6)) is None


def test_two_disjoint_unbalanced_digons():
    g = SignedGraph(
        4,
        (
            Edge(0, 1, 1), Edge(0, 1, -1),   # unbalanced digon
            Edge(2, 3, 1), Edge(2, 3, -1),   # another, disjoint
            Edge(1, 2, 1),                   # connecting path
        ),
    )
    w = find_long_barbell(g)
    assert w is not None
    assert w.path == (4,)


@pytest.fixture
def listed(monkeypatch):
    """The graphs that the long-barbell search lists circuits of, in order."""
    graphs = []
    original = structure.enumerate_circuits
    monkeypatch.setattr(structure, "enumerate_circuits", lambda g: graphs.append(g) or original(g))
    return graphs


def test_long_barbell_matches_reference_on_full_corpus(corpus_full, fresh, listed):
    # the same witness as the circuit-by-circuit reference on every 5/8
    # class, fresh objects on both sides; the balancing-vertex step
    # decides all but 74 of the 22,296 barbell-free classes without
    # listing a circuit
    free = undecided = 0
    for g in corpus_full:
        h = fresh(g)
        w = find_long_barbell(h)
        assert w == bruteforce.find_long_barbell_reference(fresh(g)), g
        free += w is None
        undecided += w is None and bool(listed) and listed[-1] is h
    assert (free, undecided) == (22_296, 74)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.integers(0, 9), st.sampled_from((0.2, 0.5, 0.8)))
def test_long_barbell_matches_reference_on_random_graphs(seed, n, extra, neg_prob):
    # connected multigraphs with loops and parallel edges
    g = random_signed_graph(seed, n, n - 1 + extra, neg_prob)
    assert structure._long_barbell(g) == bruteforce.find_long_barbell_reference(g)


def test_long_barbell_search_without_a_balancing_vertex(corpus_full, listed):
    # the first barbell-free 5/8 class in stream order that the
    # balancing-vertex step leaves undecided: a triangle with every edge
    # doubled, one copy negative.  Its three unbalanced digons meet
    # pairwise, and no vertex lies on all three, so the circuit search runs
    def undecided(h):
        listed.clear()
        return structure._long_barbell(h) is None and bool(listed)

    g = SignedGraph(3, tuple(Edge(u, v, s) for u, v in ((0, 1), (0, 2), (1, 2)) for s in (-1, 1)))
    assert corpus_full.index(g) == 1082
    assert [i for i, h in enumerate(corpus_full[:1083]) if undecided(h)] == [1082]
    assert all(structure._unbalanced_circuit(g, (0, 1, 2), range(6), (v,)) for v in range(3))
    assert find_long_barbell(g) is None
    assert bruteforce.find_long_barbell_reference(g) is None


def test_long_barbell_in_a_second_component():
    # component {0, 1, 2}: every unbalanced circuit runs through vertex 0,
    # a balancing vertex, so its loop, the first circuit, has no partner;
    # component {3, 4, 5}: negative loops at 3 and 5 on the path 3-4-5
    g = SignedGraph(
        6,
        (
            Edge(0, 0, -1), Edge(3, 3, -1),
            Edge(0, 1, 1), Edge(0, 1, -1), Edge(1, 2, 1), Edge(0, 2, 1),
            Edge(3, 4, 1), Edge(4, 5, -1), Edge(5, 5, -1),
        ),
    )
    assert structure._unbalanced_circuit(g, (0, 1, 2), (0, 2, 3, 4, 5), (0,)) is None
    w = find_long_barbell(g)
    assert w == bruteforce.find_long_barbell_reference(g)
    assert (w.circuits, w.path) == (((1,), (8,)), (6, 7))


def test_long_barbell_lists_circuits_only_when_undecided(corpus_full, fresh, listed):
    # every 5/8 long barbell is found from a loop or a digon, so circuits
    # are listed only for the 74 barbell-free classes that neither a
    # one-negative-edge defect nor a balancing vertex decides
    first = Counter()
    for g in corpus_full:
        w = find_long_barbell(fresh(g))
        if w is not None:
            first[len(w.circuits[0])] += 1
    assert first == {1: 12_430, 2: 604}
    assert len(listed) == 74
    assert all(find_long_barbell(h) is None for h in listed)


def test_long_barbell_of_two_triangles_needs_the_circuit_list(listed):
    # two unbalanced triangles joined by the edge 2-3: no loop or digon,
    # no one-negative-edge defect and no balancing vertex, so the barbell
    # is found from the circuit list, at its first unbalanced circuit
    g = SignedGraph(
        6,
        (
            Edge(0, 1, -1), Edge(1, 2, 1), Edge(0, 2, 1),
            Edge(3, 4, -1), Edge(4, 5, 1), Edge(3, 5, 1),
            Edge(2, 3, 1),
        ),
    )
    assert structure._unbalanced_loops_and_digons(g) == []
    assert is_flow_admissible(g).admissible
    w = find_long_barbell(g)
    assert w == bruteforce.find_long_barbell_reference(g)
    assert (w.circuits, w.path) == (((0, 1, 2), (3, 5, 4)), (6,))
    assert listed == [g]


def test_circuit_enumeration_deterministic():
    g = signed_petersen()
    assert enumerate_circuits(g) == enumerate_circuits(g)


# ---------------------------------------------------------------------------
# admissibility


def test_single_negative_loop_not_admissible():
    v = is_flow_admissible(SignedGraph(1, (Edge(0, 0, -1),)))
    assert not v.admissible
    assert v.defects[0].kind == "one-negative-edge"


def test_petersen_admissible():
    assert is_flow_admissible(signed_petersen()).admissible


def test_all_positive_bridgeless_admissible():
    assert is_flow_admissible(cycle(5)).admissible


def test_one_negative_edge_defect_beats_bridge():
    # triangle - bridge - unbalanced digon IS switching-equivalent to a
    # single negative edge, so that defect is the one reported
    g = SignedGraph(
        5,
        (
            Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1),
            Edge(2, 3, 1),
            Edge(3, 4, 1), Edge(3, 4, -1),
        ),
    )
    v = is_flow_admissible(g)
    assert not v.admissible
    assert v.defects[0].kind == "one-negative-edge"


def test_balanced_side_bridge():
    # two unbalanced digons in series keep the negative count at 2 under
    # every switching; the bridge to the balanced triangle is the defect
    g = SignedGraph(
        6,
        (
            Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1),
            Edge(2, 3, 1),
            Edge(3, 4, 1), Edge(3, 4, -1),
            Edge(4, 5, 1), Edge(4, 5, -1),
        ),
    )
    v = is_flow_admissible(g)
    assert not v.admissible
    assert v.defects[0].kind == "balanced-side-bridge"
    assert v.defects[0].edge == 3


def test_two_unbalanced_sides_make_bridge_fine():
    g = SignedGraph(
        4,
        (
            Edge(0, 1, 1), Edge(0, 1, -1),
            Edge(1, 2, 1),
            Edge(2, 3, 1), Edge(2, 3, -1),
        ),
    )
    assert is_flow_admissible(g).admissible


def test_switching_set_verifies():
    # defect carries the switching set that exhibits the single negative edge
    g = cycle(4, [1, 1, 1, -1])
    v = is_flow_admissible(g)
    assert not v.admissible
    d = v.defects[0]
    flipped = switch(g, d.switch_set)
    assert len(flipped.negative_edges) == 1


def test_admissibility_matches_reference_on_full_corpus(corpus_full):
    for g in corpus_full:
        assert structure._flow_admissibility(g) == bruteforce.flow_admissibility_reference(g), g


def _spread_tree_bridges(g):
    """Bridges as _flow_admissibility finds them: per component, from the
    spanning tree of its potential spread and the component's own edges."""
    potential = [0] * g.num_vertices
    tree_edge = [-1] * g.num_vertices
    bridges = []
    for root in range(g.num_vertices):
        if not potential[root]:
            reached = _spread_potential(g, root, potential, tree_edge)
            comp = set(reached)
            comp_edges = [eid for eid, e in enumerate(g.edges) if e.u in comp]
            bridges += _tree_bridges(g, reached, tree_edge, comp_edges)
    return tuple(sorted(bridges))


def test_tree_bridges_match_find_bridges_on_full_corpus(corpus_full):
    # find_bridges reads every component's tree at once, admissibility one
    # component at a time; Tarjan's low-link search is the oracle for both
    for g in corpus_full:
        assert _spread_tree_bridges(g) == find_bridges(g) == bruteforce.find_bridges_reference(g), g


@st.composite
def multi_component_graphs(draw):
    """Graphs made of up to three blocks of random edges (loops and
    parallel edges included), plus isolated vertices, with vertex and
    edge ids shuffled so that no component is a contiguous id range."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 6)), min_size=1, max_size=3))
    n = sum(size for size, _ in blocks) + draw(st.integers(0, 2))
    label = draw(st.permutations(range(n)))
    sign = st.sampled_from((1, -1))
    edges = []
    first = 0
    for size, m in blocks:
        vert = st.integers(first, first + size - 1)
        edges += [Edge(label[draw(vert)], label[draw(vert)], draw(sign)) for _ in range(m)]
        first += size
    return SignedGraph(n, tuple(draw(st.permutations(edges))))


@settings(max_examples=400, deadline=None)
@given(multi_component_graphs())
def test_admissibility_matches_reference_on_multi_component_graphs(g):
    assert structure._flow_admissibility(g) == bruteforce.flow_admissibility_reference(g)
    assert _spread_tree_bridges(g) == find_bridges(g) == bruteforce.find_bridges_reference(g)


@settings(max_examples=200, deadline=None)
@given(multi_component_graphs())
def test_long_barbell_matches_reference_on_multi_component_graphs(g):
    assert structure._long_barbell(g) == bruteforce.find_long_barbell_reference(g)


def test_admissibility_is_having_a_nowhere_zero_11_flow():
    # a signed graph with a nowhere-zero flow has a nowhere-zero 11-flow
    # (DeVos, Li, Lu, Luo, Zhang and Zhang), so admissibility must agree
    # with the exhaustive 11-flow search on every class
    graphs = list(enumerate_signed_graphs(5, 5))
    assert len(graphs) == 491
    for g in graphs:
        assert bool(is_flow_admissible(g)) == (find_nz_k_flow(g, 11) is not None), g


def test_admissibility_defect_witnesses_check_out():
    seen = {"one-negative-edge": 0, "balanced-side-bridge": 0}
    for g in enumerate_signed_graphs(4, 7):
        bridges = find_bridges(g)
        for d in is_flow_admissible(g).defects:
            seen[d.kind] += 1
            comp = set(d.component)
            e = g.edges[d.edge]
            assert e.u in comp, (g, d)
            if d.kind == "one-negative-edge":
                switched = switch(g, d.switch_set)
                negative = [i for i in switched.negative_edges if switched.edges[i].u in comp]
                assert negative == [d.edge], (g, d)
            else:
                assert d.edge in bridges, (g, d)
                without = SignedGraph(
                    g.num_vertices, tuple(f for i, f in enumerate(g.edges) if i != d.edge)
                )
                sides = [
                    side
                    for verts, side, _, _ in bruteforce._component_graphs(without)
                    if e.u in verts or e.v in verts
                ]
                assert len(sides) == 2 and any(is_balanced(s).balanced for s in sides), (g, d)
    assert min(seen.values()) > 0, seen


def test_admissible_barbell_free_is_bridgeless(corpus_4_6):
    for g in corpus_4_6:
        if is_flow_admissible(g).admissible and find_long_barbell(g) is None:
            assert find_bridges(g) == ()


# ---------------------------------------------------------------------------
# star cuts


def test_path_star_cut_middle():
    # widest star wins: the middle vertex with both bridges
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1)))
    star = has_star_cut(g)
    assert star is not None and star.center == 1
    assert sorted(star.edges) == [0, 1]
    assert sorted(star.leaves) == [0, 2]


def test_bridgeless_no_star_cut():
    assert has_star_cut(cycle(4)) is None


def test_joined_triangles_star_cut():
    g = SignedGraph(
        6,
        (
            Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1),
            Edge(2, 3, 1),
            Edge(3, 4, 1), Edge(4, 5, 1), Edge(5, 3, 1),
        ),
    )
    star = has_star_cut(g)
    assert star is not None
    assert star.edges == (3,)


# ---------------------------------------------------------------------------
# cubic operations


def k4():
    return SignedGraph(4, tuple(Edge(u, v, 1) for u in range(4) for v in range(u + 1, 4)))


def test_k4_three_edge_colorable():
    col = three_edge_coloring(k4())
    assert col is not None
    # proper: distinct colors at every vertex
    for v in range(4):
        seen = [col[i] for i, e in enumerate(k4().edges) if v in (e.u, e.v)]
        assert len(set(seen)) == 3


def test_petersen_not_three_edge_colorable():
    assert three_edge_coloring(signed_petersen()) is None
    # the exhaustive search in the layout order tries 231 colours
    with pytest.raises(ResourceCapExceeded, match="coloring") as exc:
        three_edge_coloring(signed_petersen(), cap=230)
    assert exc.value.spent == 231


def _graph(n, pairs):
    return SignedGraph(n, tuple(Edge(u, v, 1) for u, v in pairs))


def test_coloring_matches_the_product_over_all_colourings(corpus_full):
    # every loopless cubic class of the corpus (none has 5 vertices), then
    # K_{3,3} and the triangular prism
    cubic = [
        g for g in corpus_full
        if not any(e.is_loop for e in g.edges) and all(g.degree(v) == 3 for v in range(g.num_vertices))
    ]
    assert len(cubic) == 9
    k33 = _graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = _graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    for g in cubic + [k33, prism]:
        col = three_edge_coloring(g)
        assert (col is not None) == bruteforce.three_edge_colorable_reference(g), g.edges
        assert col is None or bruteforce.is_proper_edge_coloring(g, col), (g.edges, col)


def test_coloring_refuses_a_layout_that_misses_an_edge():
    g = k4()
    order, arrays = g.search_layout
    g.__dict__["search_layout"] = (order[1:], arrays)  # the cached value
    with pytest.raises(InvariantViolation, match="layout"):
        three_edge_coloring(g)


def test_cubic_suite_bounds_the_coloring_by_its_cap(monkeypatch):
    # with the Z_4 answer already recorded on g, only the colouring
    # searches, and the suite's cap bounds it too
    monkeypatch.delenv("SG_RESOURCE_CAP", raising=False)
    g = signed_petersen()
    assert find_nz_zk_flow(g, 4) is None
    with pytest.raises(ResourceCapExceeded, match="coloring") as exc:
        run_suite("cubic-z4", [g], cap=100)
    assert (exc.value.cap, exc.value.spent) == (100, 101)
    report = run_suite("cubic-z4", [g])
    assert report.ok and (report.checked, report.notes) == (1, {"uncolorable": 1})


def test_non_cubic_rejected():
    with pytest.raises(PreconditionError):
        three_edge_coloring(cycle(3))
    with pytest.raises(PreconditionError):
        three_edge_coloring(SignedGraph(1, (Edge(0, 0, 1), Edge(0, 0, -1))))


def test_circuit_peel_matches_two_regular_reference(corpus_4_6):
    # the peel is the package's only circuit splitter; sorted, it must give
    # what the old 2-factor splitter gives on every edge set that one
    # accepts: all 2-regular sets, and circuits meeting at their start
    checked = two_regular = 0
    for g in corpus_4_6:
        for mask in range(1, 1 << g.num_edges):
            ids = [i for i in range(g.num_edges) if mask >> i & 1]
            deg = [0] * g.num_vertices
            for i in ids:
                deg[g.edges[i].u] += 1
                deg[g.edges[i].v] += 1
            is_two_regular = all(d in (0, 2) for d in deg)
            reference = bruteforce.decompose_two_regular_reference(g, ids)
            if reference is None:
                assert not is_two_regular, (g, ids)
                continue
            peeled = sorted(structure._peel_circuits(g, ids), key=lambda c: (len(c), c))
            assert peeled == reference, (g, ids)
            checked += 1
            two_regular += is_two_regular
    assert (checked, two_regular) == (12340, 8727)


CORPUS_4_5 = list(enumerate_signed_graphs(4, 5))


def test_classify_matches_forced_walk_reference():
    # the peel-based classifier against the old forced-walk tracer on
    # every edge subset of every 4/5 class
    kinds = Counter()
    for g in CORPUS_4_5:
        for mask in range(1, 1 << g.num_edges):
            ids = [i for i in range(g.num_edges) if mask >> i & 1]
            w = classify_signed_circuit(g, ids)
            ref = bruteforce.classify_signed_circuit_reference(g, ids)
            assert (w is None) == (ref is None), (g, ids)
            kinds[w and w.kind] += 1
            if w is None:
                continue
            assert w.kind == ref.kind, (g, ids)
            assert sorted(map(sorted, w.circuits)) == sorted(map(sorted, ref.circuits)), (g, ids)
            assert w.path == ref.path, (g, ids)
            for c in w.circuits:
                structure._circuit_walk(g, c)
            if w.path:
                odd = structure._odd_vertices(g, ids)
                walk = [min(odd)]
                for eid in w.path:
                    walk.append(g.edges[eid].other(walk[-1]))
                assert walk[-1] == max(odd), (g, ids)
    assert sum(kinds.values()) == 11526
    assert (kinds["balanced-circuit"], kinds["short-barbell"], kinds["long-barbell"]) == (703, 209, 97)


@given(st.sampled_from(CORPUS_4_5), st.data())
@settings(deadline=None, max_examples=100)
def test_classify_ignores_id_order(g, data):
    ids = data.draw(st.sets(st.integers(0, g.num_edges - 1), min_size=1).map(sorted))
    shuffled = data.draw(st.permutations(ids))
    assert repr(classify_signed_circuit(g, shuffled)) == repr(classify_signed_circuit(g, ids))


def test_signed_circuit_search_agrees_with_classify(corpus_3_4):
    for g in corpus_3_4[::4]:
        w = find_signed_circuit(g)
        if w is not None:
            edges = [e for c in w.circuits for e in c] + list(w.path or ())
            again = classify_signed_circuit(g, edges)
            assert again is not None and again.kind == w.kind


def test_admissibility_and_barbell_search_computed_once_per_graph(monkeypatch):
    # every suite, flow_numbers and the transforms they call ask both
    # questions of the same graph object; each is answered only once
    computed = {"_flow_admissibility": [], "_long_barbell": []}
    for name, log in computed.items():
        original = getattr(structure, name)

        def counting(g, original=original, log=log):
            log.append(g)
            return original(g)

        monkeypatch.setattr(structure, name, counting)
    g = SignedGraph(4, tuple(Edge(u, v, 1) for u in range(4) for v in range(u + 1, 4)))
    for name in SUITES:
        report = run_suite(name, [g])
        assert report.ok and report.skipped == (name == "eulerian-decomp"), name
    assert flow_numbers(g).phi_i == 4
    for name, log in computed.items():
        assert sum(h is g for h in log) == 1, name
