"""Existence solvers and exact flow numbers."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

import bruteforce
from signedflow import _solver_py, simplex, solve
from signedflow.core import (
    Edge,
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    check_flow,
    switch,
)
from signedflow.corpus import (
    enumerate_signed_graphs,
    g_family,
    signed_petersen,
    w5_all_signatures,
    wheel_w5,
)
from signedflow.errors import InvariantViolation, PreconditionError, ResourceCapExceeded
from signedflow.solve import (
    circular_flow_number,
    find_2_flow_on_even_graph,
    find_nz_k_flow,
    find_nz_zk_flow,
    flow_numbers,
    integer_flow_number,
    signed_circuit_flow,
)
from signedflow.structure import (
    SignedCircuitWitness,
    circuit_vertices,
    classify_signed_circuit,
    enumerate_circuits,
    is_flow_admissible,
    is_unbalanced_circuit,
)


def cycle(n, signs=None):
    signs = signs or [1] * n
    return SignedGraph(n, tuple(Edge(i, (i + 1) % n, signs[i]) for i in range(n)))


def k4():
    return SignedGraph(4, tuple(Edge(u, v, 1) for u in range(4) for v in range(u + 1, 4)))


def odd_degree(g):
    """Some vertex has odd degree, a loop counting 2."""
    return any(n % 2 for n in Counter(x for e in g.edges for x in (e.u, e.v)).values())


# ---------------------------------------------------------------------------
# integer / modulo search


def test_petersen_six_flow(petersen):
    fa = find_nz_k_flow(petersen, 6)
    assert fa is not None
    assert check_flow(petersen, fa, FlowKind.integer(6)).ok


def test_petersen_no_five_flow(petersen, fresh):
    stats = {}
    assert find_nz_k_flow(fresh(petersen), 5, stats=stats) is None
    # the Z_5 search proves it, so the integer search never runs
    assert stats["zk_nodes"] > 0
    assert stats["nodes"] == 0


def test_g1_no_three_flow():
    g = g_family(1)
    assert find_nz_k_flow(g, 3) is None
    assert find_nz_zk_flow(g, 3) is None


def test_k4_no_three_flow_either_way():
    # non-bipartite cubic: no 3-flow, and the modular solver must agree
    assert find_nz_zk_flow(k4(), 3) is None
    assert find_nz_k_flow(k4(), 3) is None


def test_k33_three_flow_both_ways():
    g = SignedGraph(
        6, tuple(Edge(u, v, 1) for u in range(3) for v in range(3, 6))
    )
    za = find_nz_zk_flow(g, 3)
    assert za is not None
    assert check_flow(g, za, FlowKind.modulo(3)).ok
    assert find_nz_k_flow(g, 3) is not None


def test_positive_loop_two_flow():
    g = SignedGraph(1, (Edge(0, 0, 1),))
    fa = find_nz_k_flow(g, 2)
    assert fa is not None and fa.values == (1,)


def test_single_negative_loop_no_integer_flow():
    g = SignedGraph(1, (Edge(0, 0, -1),))
    for k in (2, 3, 4, 5, 6):
        assert find_nz_k_flow(g, k) is None
    # ... but residue k/2 closes the modular boundary when k is even
    assert find_nz_zk_flow(g, 6) is not None
    assert find_nz_zk_flow(g, 5) is None


def test_bad_k_rejected():
    with pytest.raises(PreconditionError):
        find_nz_k_flow(cycle(3), 1)
    with pytest.raises(PreconditionError):
        find_nz_zk_flow(cycle(3), 0)


def test_cap_raises_never_lies(petersen, fresh):
    # both searches run past 1000 nodes on Petersen at k = 5; the count
    # stops one node past the cap, at the first node that passes it.  A
    # capped search records no answer, so each one on g searches again
    g = fresh(petersen)
    for fn in (find_nz_k_flow, find_nz_zk_flow):
        for cap in (1, 10, 100, 1000):
            with pytest.raises(ResourceCapExceeded) as exc:
                fn(g, 5, cap=cap)
            assert exc.value.cap == cap
            assert exc.value.spent == cap + 1


@pytest.mark.parametrize("cap,env", [(0, None), (-1, None), (None, "0")])
def test_cap_below_one_rejected(petersen, monkeypatch, cap, env):
    # the kernels read a cap of 0 as unlimited and a negative one as spent
    if env is not None:
        monkeypatch.setenv("SG_RESOURCE_CAP", env)
    with pytest.raises(PreconditionError, match="at least 1"):
        find_nz_k_flow(petersen, 5, cap=cap)
    with pytest.raises(PreconditionError, match="at least 1"):
        find_nz_zk_flow(petersen, 5, cap=cap)


def test_monotone_in_k(corpus_3_4):
    for g in corpus_3_4[::6]:
        for k in (2, 3, 4):
            if find_nz_k_flow(g, k) is not None:
                assert find_nz_k_flow(g, k + 1) is not None


def test_zk_flow_count_matches_the_brute_force(corpus_3_4):
    # the Beck-Zaslavsky count is exact, not only its sign
    for g in corpus_3_4:
        table = bruteforce.subset_component_table(g)
        for k in (2, 3, 4, 5):
            assert bruteforce.nowhere_zero_zk_flow_count(g, k, table) == len(
                bruteforce.all_zk_flows(g, k)
            ), (g.edges, k)
    w5 = wheel_w5()
    table = bruteforce.subset_component_table(w5)
    # (k - 2)^5 - (k - 2): the dual count of the 5-wheel's proper colourings
    assert [bruteforce.nowhere_zero_zk_flow_count(w5, k, table) for k in range(2, 7)] == [
        0, 0, 30, 240, 1020
    ]


def test_zk_search_decides_as_the_flow_count():
    # "no Z_k-flow" from the search against a count that shares no code
    # with it, on every 4/7 class at k = 2..8
    decided = Counter()
    for g in enumerate_signed_graphs(4, 7):
        table = bruteforce.subset_component_table(g)
        for k in range(2, 9):
            found = find_nz_zk_flow(g, k) is not None
            assert (bruteforce.nowhere_zero_zk_flow_count(g, k, table) > 0) == found, (g.edges, k)
            decided[found] += 1
    assert sum(decided.values()) == 5674 * 7 and decided[False] and decided[True]


def test_solver_backend_name_names_the_one_kernel():
    # the benchmark records this name and probes it for other kernels
    assert solve.solver_backend_name() == solve.solver_backend_name("python") == "python"
    with pytest.raises(PreconditionError):
        solve.solver_backend_name("compiled")


def test_search_layout_matches_the_two_pass_reference(corpus_full, petersen):
    # the one-pass order and kernel arrays are those of the DFS with its
    # discovered-edge and neighbour sets, then a pass for the arrays
    graphs = list(corpus_full) + [petersen] + [g_family(t) for t in (1, 2, 3, 4)]
    graphs += [SignedGraph(0, ()), SignedGraph(3, (Edge(2, 2, -1), Edge(2, 2, 1)))]
    for g in graphs:
        assert solve._search_layout(g) == bruteforce.search_layout_reference(g), g.edges


def test_deterministic_witnesses(petersen):
    assert find_nz_k_flow(petersen, 6) == find_nz_k_flow(petersen, 6)
    assert find_nz_zk_flow(petersen, 6) == find_nz_zk_flow(petersen, 6)


def test_zk_first_matches_the_integer_kernel_alone(corpus_4_6, petersen, fresh):
    # the Z_k search only ever answers "none"; every flow, and every "none"
    # it cannot prove, is the integer search's.  Fresh objects, so every
    # search walks its tree, except at k = 2 on a graph with a vertex of
    # odd degree, where none runs
    cases = [(g, k) for g in corpus_4_6 for k in range(2, 6)]
    cases += [(petersen, k) for k in range(2, 7)]
    cases += [(g_family(t), k) for t in (1, 2, 3) for k in range(2, 5)]
    cases += [(g, k) for g in w5_all_signatures() for k in range(2, 6)]
    decided_by_zk = integer_none = 0
    for g, k in cases:
        stats, plain, zk = {}, {}, {}
        got = find_nz_k_flow(fresh(g), k, stats=stats)
        assert got == bruteforce.find_nz_k_flow_reference(g, k, stats=plain), (g, k)
        zk_none = find_nz_zk_flow(fresh(g), k, stats=zk) is None
        decided = {"decided": "odd-degree"} if k == 2 and odd_degree(g) else {}
        assert zk.keys() - {"nodes"} == decided.keys()
        nodes = 0 if zk_none else plain["nodes"]
        assert stats == {"nodes": nodes, "zk_nodes": zk["nodes"], **decided}
        decided_by_zk += zk_none
        integer_none += got is None and not zk_none
    assert (len(cases), decided_by_zk, integer_none) == (6634, 4529, 377)


@pytest.mark.parametrize(
    "name,k,found,nodes,zk_nodes",
    [
        ("petersen", 5, False, 0, 9_972),
        ("petersen", 6, True, 5_032, 41),
        ("g3", 3, False, 0, 674),
        ("g3", 4, True, 47, 20),
    ],
)
def test_k_flow_stats_pinned(petersen, fresh, name, k, found, nodes, zk_nodes):
    # "nodes" counts the integer tree, "zk_nodes" the Z_k one; a "none"
    # proved by the Z_k search runs no integer search
    g = fresh(petersen if name == "petersen" else g_family(3))
    stats = {}
    assert (find_nz_k_flow(g, k, stats=stats) is not None) == found
    assert stats == {"nodes": nodes, "zk_nodes": zk_nodes}


def test_k_flow_stats_set_when_the_integer_search_is_capped(monkeypatch, petersen, fresh):
    # a capped Z_5 search falls back to the integer search, capped too
    def capped(*args):
        return _solver_py.CAPPED, None, args[-1] + 1

    monkeypatch.setattr(_solver_py, "search_modulo", capped)
    stats = {}
    with pytest.raises(ResourceCapExceeded, match="^k-flow search$") as exc:
        find_nz_k_flow(fresh(petersen), 5, cap=100, stats=stats)
    assert exc.value.spent == 101
    assert stats == {"nodes": 101, "zk_nodes": 101}


def test_recorded_answers_are_reused_in_either_order(corpus_4_6, petersen, fresh):
    # both finders on one object, in both orders: the same answers and
    # witnesses as on fresh objects, and every answer read from the record
    # walks 0 nodes and says so
    graphs = list(corpus_4_6) + [petersen] + [g_family(t) for t in (1, 2, 3)]
    graphs += w5_all_signatures()
    cases = [(g, k) for g in graphs for k in range(2, 7)]
    flows = Counter()
    for g, k in cases:
        a, b = fresh(g), fresh(g)
        sa1, sa2, sb1, sb2 = {}, {}, {}, {}
        za = find_nz_zk_flow(a, k, stats=sa1)
        kb = find_nz_k_flow(b, k, stats=sb1)
        assert "reused" not in sa1 and "reused" not in sb1
        assert find_nz_k_flow(a, k, stats=sa2) == kb, (g, k)
        assert sa2 == {"nodes": sb1["nodes"], "zk_nodes": 0, "reused": ["Z_k"]}
        assert find_nz_zk_flow(b, k, stats=sb2) == za, (g, k)
        assert sb2 == {"nodes": 0, "reused": ["Z_k"]}
        both = ["Z_k"] if za is None else ["Z_k", "integer"]
        flows["Z_k"] += za is not None
        flows["integer"] += kb is not None
        for h in (a, b):
            again, zk_again = {}, {}
            assert find_nz_k_flow(h, k, stats=again) == kb
            assert again == {"nodes": 0, "zk_nodes": 0, "reused": both}
            assert find_nz_zk_flow(h, k, stats=zk_again) == za
            assert zk_again == {"nodes": 0, "reused": ["Z_k"]}
    assert (len(cases), flows["Z_k"], flows["integer"]) == (8295, 2856, 2271)


def test_k2_odd_degree_decided_without_a_search(corpus_4_6, petersen, fresh):
    # a nowhere-zero 2-flow or Z_2-flow is odd on every edge, so a vertex
    # of odd degree rules out both: the answer is the brute force's, no
    # node is walked, and the kernel run directly on the graph exhausts
    kinds = (
        (find_nz_k_flow, bruteforce.has_integer_k_flow, _solver_py.search_integer,
         {"nodes": 0, "zk_nodes": 0, "decided": "odd-degree"}),
        (find_nz_zk_flow, bruteforce.has_zk_flow, _solver_py.search_modulo,
         {"nodes": 0, "decided": "odd-degree"}),
    )
    decided = 0
    for g in corpus_4_6:
        odd = odd_degree(g)
        decided += odd
        for finder, has_flow, kernel, decided_stats in kinds:
            stats = {}
            got = finder(fresh(g), 2, stats=stats)
            assert (got is not None) == has_flow(g, 2), g.edges
            assert (stats == decided_stats) == odd, (g.edges, stats)
            if odd:
                order, arrays = bruteforce.search_layout_reference(g)
                status = kernel(len(order), g.num_vertices, *arrays, 2, 0)[0]
                assert status == _solver_py.EXHAUSTED, g.edges
    assert (len(corpus_4_6), decided) == (1623, 1277)
    # every graph of the hard-search benchmark has a vertex of degree 3
    for g in [petersen] + [g_family(t) for t in (1, 2, 3)]:
        for finder, _, _, decided_stats in kinds:
            stats = {}
            assert finder(fresh(g), 2, stats=stats) is None
            assert stats == decided_stats


def test_a_decided_answer_is_recorded(petersen, fresh):
    g = fresh(petersen)
    first, again, zk_again = {}, {}, {}
    assert find_nz_k_flow(g, 2, stats=first) is None
    assert first == {"nodes": 0, "zk_nodes": 0, "decided": "odd-degree"}
    assert g.search_answers == {("Z_k", 2): None}
    assert find_nz_k_flow(g, 2, stats=again) is None
    assert again == {"nodes": 0, "zk_nodes": 0, "reused": ["Z_k"]}
    assert find_nz_zk_flow(g, 2, stats=zk_again) is None
    assert zk_again == {"nodes": 0, "reused": ["Z_k"]}


def test_a_capped_search_is_not_recorded(petersen, fresh):
    g = fresh(petersen)
    with pytest.raises(ResourceCapExceeded, match="^Z_k-flow search$"):
        find_nz_zk_flow(g, 5, cap=100)
    # Petersen at k = 6: the Z_6 search finds a flow in 41 nodes, the
    # integer search needs 5,032
    with pytest.raises(ResourceCapExceeded, match="^k-flow search$"):
        find_nz_k_flow(g, 6, cap=100)
    assert g.search_answers.keys() == {("Z_k", 6)}
    stats, k_stats = {}, {}
    assert find_nz_zk_flow(g, 5, stats=stats) is None
    assert stats == {"nodes": 9_972}
    assert find_nz_k_flow(g, 6, stats=k_stats) == find_nz_k_flow(fresh(g), 6)
    assert k_stats == {"nodes": 5_032, "zk_nodes": 0, "reused": ["Z_k"]}


def test_a_recorded_answer_is_returned_under_any_cap(petersen, fresh):
    g = fresh(petersen)
    assert find_nz_zk_flow(g, 5) is None
    six = find_nz_k_flow(g, 6)
    stats, zk = {}, {}
    assert find_nz_k_flow(g, 5, cap=1, stats=stats) is None
    assert stats == {"nodes": 0, "zk_nodes": 0, "reused": ["Z_k"]}
    assert find_nz_zk_flow(g, 5, cap=1, stats=zk) is None
    assert zk == {"nodes": 0, "reused": ["Z_k"]}
    assert find_nz_k_flow(g, 6, cap=1) == six
    # a cap below 1 is still refused
    with pytest.raises(PreconditionError, match="at least 1"):
        find_nz_k_flow(g, 6, cap=0)


def test_a_recorded_integer_answer_skips_a_capped_zk_search(monkeypatch):
    # two negative loops at one vertex at k = 5: the Z_5 tree needs 5
    # nodes, the integer tree 3, so under cap 4 the Z_k search is capped
    # and the integer search records its flow; a repeat call reads that
    # record without walking the capped Z_k search again
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    first, again = {}, {}
    flow = find_nz_k_flow(g, 5, cap=4, stats=first)
    assert flow is not None and first == {"nodes": 3, "zk_nodes": 5}
    calls = []
    original = _solver_py.search_modulo
    monkeypatch.setattr(_solver_py, "search_modulo", lambda *a: calls.append(a) or original(*a))
    assert find_nz_k_flow(g, 5, cap=4, stats=again) == flow
    assert again == {"nodes": 0, "zk_nodes": 0, "reused": ["integer"]}
    assert calls == []


# ---------------------------------------------------------------------------
# 2-flows on even graphs


def test_even_cycle_two_flow():
    g = cycle(4)
    fa = find_2_flow_on_even_graph(g)
    assert fa is not None
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_short_barbell_two_flow():
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    fa = find_2_flow_on_even_graph(g)
    assert fa is not None
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_odd_negative_component_refused():
    # eulerian but one negative edge in the component
    g = SignedGraph(2, (Edge(0, 0, -1), Edge(0, 1, 1), Edge(0, 1, 1)))
    assert find_2_flow_on_even_graph(g) is None


def test_even_negative_unbalanced_component():
    g = SignedGraph(2, (Edge(0, 0, -1), Edge(0, 1, 1), Edge(0, 1, -1)))
    fa = find_2_flow_on_even_graph(g)
    assert fa is not None
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_non_eulerian_refused():
    assert find_2_flow_on_even_graph(SignedGraph(2, (Edge(0, 1, 1),))) is None


def test_two_flow_after_switching(corpus_3_4):
    # the construction switches balanced components positive internally;
    # the result must still be a 2-flow of the *input* signature
    for g in corpus_3_4:
        fa = find_2_flow_on_even_graph(g)
        if fa is not None:
            assert check_flow(g, fa, FlowKind.integer(2)).ok


# ---------------------------------------------------------------------------
# signed circuit flows


def test_balanced_circuit_flow():
    g = cycle(4, [1, 1, -1, -1])
    w = classify_signed_circuit(g, range(4))
    fa = signed_circuit_flow(w)
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_short_barbell_flow():
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, -1)))
    w = classify_signed_circuit(g, [0, 1])
    fa = signed_circuit_flow(w)
    assert set(map(abs, fa.values)) == {1}
    assert check_flow(g, fa, FlowKind.integer(2)).ok


def test_long_barbell_flow_doubles_path():
    g = SignedGraph(3, (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1)))
    w = classify_signed_circuit(g, range(4))
    fa = signed_circuit_flow(w)
    assert check_flow(g, fa, FlowKind.integer(3)).ok
    assert abs(fa.values[2]) == 2 and abs(fa.values[3]) == 2
    assert abs(fa.values[0]) == 1 and abs(fa.values[1]) == 1


def test_circuit_flow_support_only_witness_edges():
    # embed a balanced digon in a larger host; support must stay inside
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    w = classify_signed_circuit(g, [0, 1])
    fa = signed_circuit_flow(w)
    assert fa.values[2] == 0 and fa.values[3] == 0
    assert abs(fa.values[0]) == 1 and abs(fa.values[1]) == 1


def _barbell_4_cycle_and_loop():
    # the 4-cycle 0-1-2-3 is unbalanced through edge 0; the loop 4 meets it at 0
    edges = tuple(Edge(i, (i + 1) % 4, -1 if i == 0 else 1) for i in range(4))
    return SignedGraph(4, edges + (Edge(0, 0, -1),))


@pytest.mark.parametrize(
    "g,kind,circuits",
    [
        (cycle(4), "balanced-circuit", ((0, 2, 1, 3),)),
        (_barbell_4_cycle_and_loop(), "short-barbell", ((0, 2, 1, 3), (4,))),
        (_barbell_4_cycle_and_loop(), "short-barbell", ((1, 3, 0, 2), (4,))),
        (_barbell_4_cycle_and_loop(), "short-barbell", ((0, 1, 3, 2), (4,))),
    ],
)
def test_circuit_flow_refuses_edges_out_of_walking_order(g, kind, circuits):
    w = SignedCircuitWitness(kind, circuits, graph=g)
    with pytest.raises(PreconditionError):
        signed_circuit_flow(w)


def test_circuit_flow_refuses_a_misstated_path():
    # the loops 0 and 1 are the circuits and edges 2 and 3 the path; the
    # same edges, with loop 1 stated as part of the path, would double it
    g = SignedGraph(3, (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1)))
    w = SignedCircuitWitness("long-barbell", ((0,),), (2, 3, 1), graph=g)
    with pytest.raises(PreconditionError):
        signed_circuit_flow(w)


def _barbell_paths(g, v1, v2):
    """Every path from the vertex set v1 to v2 whose other vertices lie
    in neither."""

    def extend(x, seen, path):
        for eid, _ in g.incidence[x]:
            y = g.edges[eid].other(x)
            if y in seen or y in v1:
                continue
            if y in v2:
                yield path + (eid,)
            else:
                yield from extend(y, seen | {y}, path + (eid,))

    for a in sorted(v1):
        yield from extend(a, {a}, ())


def _signed_circuits(g):
    """Every signed circuit of g, as classify_signed_circuit states it:
    each balanced circuit, each pair of unbalanced circuits meeting in
    one vertex, and each pair of disjoint ones with each path between."""
    circuits = enumerate_circuits(g)
    unbalanced = [c for c in circuits if is_unbalanced_circuit(g, c)]
    edge_sets = [c for c in circuits if not is_unbalanced_circuit(g, c)]
    for i, c1 in enumerate(unbalanced):
        v1 = circuit_vertices(g, c1)
        for c2 in unbalanced[i + 1 :]:
            v2 = circuit_vertices(g, c2)
            if len(v1 & v2) == 1:
                edge_sets.append(c1 + c2)
            elif not v1 & v2:
                edge_sets += [c1 + c2 + path for path in _barbell_paths(g, v1, v2)]
    return [classify_signed_circuit(g, ids) for ids in edge_sets]


def test_circuit_flow_matches_hand_chained_reference():
    # every signed circuit of every 5/7 class: the 2-flow of the witness
    # with its path doubled is the old hand-chained flow up to one global
    # sign, and its lowest edge is positive under the reference orientation
    kinds = Counter()
    negated = 0
    for g in enumerate_signed_graphs(5, 7):
        for w in _signed_circuits(g):
            kinds[w.kind] += 1
            new, old = (
                list(fa.signed_values())
                for fa in (signed_circuit_flow(w), bruteforce.signed_circuit_flow_reference(w))
            )
            assert new in (old, [-v for v in old]), (g, w)
            assert new[min(w.edge_ids)] > 0, (g, w)
            negated += new != old
    assert kinds == {"balanced-circuit": 20542, "short-barbell": 7127, "long-barbell": 6469}
    assert negated == 2938


# ---------------------------------------------------------------------------
# flow numbers


# (graph, phi_i, phi_c); values hand-derived or classical
FROZEN_NUMBERS = [
    (cycle(4), 2, Fraction(2)),                 # even balanced circuit
    (cycle(3), 2, Fraction(2)),                 # a cycle carries f=1 regardless of length
    (k4(), 4, Fraction(4)),                     # self-dual planar: phi_c = chi_c(K4) = 4
    (
        SignedGraph(3, (Edge(0, 0, -1), Edge(2, 2, -1), Edge(0, 1, 1), Edge(1, 2, 1))),
        3,
        Fraction(3),                            # long barbell: path carries 2, loops 1
    ),
]


@pytest.mark.parametrize("g,phi_i,phi_c", FROZEN_NUMBERS)
def test_frozen_flow_numbers(g, phi_i, phi_c):
    fn = flow_numbers(g)
    assert fn.phi_i == phi_i
    assert fn.phi_c == phi_c
    assert check_flow(g, fn.witnesses["phi_i"], FlowKind.integer(phi_i)).ok
    assert check_flow(g, fn.witnesses["phi_c"], FlowKind.circular(phi_c)).ok


def test_petersen_integer_number(petersen):
    fn = integer_flow_number(petersen)
    assert fn.phi_i == 6


def test_g1_numbers():
    fn = flow_numbers(g_family(1))
    assert fn.phi_i == 4       # paper asserts >= 4; exact value from the solver
    assert fn.phi_c == 3
    assert check_flow(g_family(1), fn.witnesses["phi_c"], FlowKind.circular(3)).ok


def test_phi_c_at_most_phi_i(corpus_3_4):
    from signedflow.structure import is_flow_admissible

    for g in corpus_3_4[::9]:
        if not is_flow_admissible(g).admissible or g.num_edges > 6:
            continue
        fn = flow_numbers(g)
        if fn.phi_i is not None and fn.phi_c is not None:
            assert fn.phi_c <= fn.phi_i


def test_circular_rejects_inadmissible():
    with pytest.raises(PreconditionError):
        circular_flow_number(SignedGraph(1, (Edge(0, 0, -1),)))


def test_circular_edge_cap():
    g = cycle(4)
    with pytest.raises(ResourceCapExceeded):
        circular_flow_number(g, edge_cap=3)


def test_circular_witness_zero_slack():
    fn = circular_flow_number(k4())
    r = fn.phi_c
    fa = fn.witnesses["phi_c"]
    from signedflow.core import boundary

    assert all(b == 0 for b in boundary(k4(), fa))
    assert all(1 <= abs(Fraction(v)) <= r - 1 for v in fa.values)
    # optimum is attained: some edge sits exactly at the upper bound
    assert any(abs(Fraction(v)) == r - 1 for v in fa.values)


@pytest.fixture(scope="module")
def circular_oracle():
    """Per graph: (name, sweep answer, sweep LP calls, pruned answer,
    pruned LP calls, seeded answer, seeded LP calls) over Petersen,
    g_family(1..2) and every admissible class with at most 4 vertices and
    7 edges.  Pruned is circular_flow_number, seeded is flow_numbers,
    which starts the same search from phi_i - 1."""
    graphs = [("petersen", signed_petersen()), ("g1", g_family(1)), ("g2", g_family(2))]
    graphs += [
        (f"c47:{i}", g)
        for i, g in enumerate(enumerate_signed_graphs(4, 7))
        if is_flow_admissible(g)
    ]
    calls = [0]
    solve_lp = simplex.solve_lp

    def counted(*args):
        calls[0] += 1
        return solve_lp(*args)

    def answer(fn):
        return fn.phi_c, fn.witnesses["phi_c"]

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bruteforce.simplex, "solve_lp", counted)
        mp.setattr(solve, "solve_lp", counted)
        for name, g in graphs:
            calls[0] = 0
            swept = bruteforce.circular_sweep(g)
            swept_calls = calls[0]
            calls[0] = 0
            pruned = answer(circular_flow_number(g))
            pruned_calls = calls[0]
            calls[0] = 0
            seeded = answer(flow_numbers(g))
            runs.append((name, swept, swept_calls, pruned, pruned_calls, seeded, calls[0]))
    return runs


@pytest.fixture(scope="module")
def circular_runs(circular_oracle):
    """The sweep and circular_flow_number columns of circular_oracle."""
    return [run[:5] for run in circular_oracle]


def test_circular_matches_orientation_sweep(circular_runs):
    assert len(circular_runs) == 2080
    for name, swept, _, pruned, _ in circular_runs:
        assert repr(pruned) == repr(swept), name


def test_circular_pruning_skips_lps(circular_runs):
    by_name = {name: (sc, pc) for name, _, sc, _, pc in circular_runs}
    assert by_name["g2"][1] < by_name["g2"][0]
    corpus = [v for name, v in by_name.items() if name.startswith("c47:")]
    assert sum(pc for _, pc in corpus) < sum(sc for sc, _ in corpus)
    assert all(pc <= sc for sc, pc in by_name.values())


def test_seeded_search_matches_orientation_sweep(circular_oracle):
    assert len(circular_oracle) == 2080
    for name, swept, _, _, _, seeded, _ in circular_oracle:
        assert repr(seeded) == repr(swept), name


# LP calls of flow_numbers before the subset cut, the tie-key skip and
# the phi_i - 1 seed; every one of them may only fall
PARENT_LP_CALLS = {"petersen": 838, "g1": 3, "g2": 146, "g3": 2802, "c47": 12671}


def test_lp_calls_below_parent_ceilings(circular_oracle):
    calls = {name: lps for name, *_, lps in circular_oracle if not name.startswith("c47:")}
    calls["c47"] = sum(lps for name, *_, lps in circular_oracle if name.startswith("c47:"))
    stats = {}
    flow_numbers(g_family(3), stats=stats)
    calls["g3"] = stats["lp_calls"]
    for name, ceiling in PARENT_LP_CALLS.items():
        assert calls[name] <= ceiling, name
    for name in ("petersen", "g2", "g3", "c47"):
        assert calls[name] < PARENT_LP_CALLS[name], name


# flow_numbers LP calls over the admissible 4/7 classes, exact, since
# each class of identical parallel edges is oriented once (6,957 before)
C47_LP_CALLS = 4002


def test_c47_lp_calls_pinned(circular_oracle):
    assert sum(lps for name, *_, lps in circular_oracle if name.startswith("c47:")) == C47_LP_CALLS


def test_twins_of_the_lowest_lp_edge():
    # three negative loops at one vertex: position 0 is never reversed, so
    # only edges 1 and 2 are twins; folding edge 0 into their class would
    # refuse every orientation with zero boundary
    g = SignedGraph(1, (Edge(0, 0, -1),) * 3)
    swept = repr(bruteforce.circular_sweep(g))
    for entry in (circular_flow_number, flow_numbers):
        stats = {}
        fn = entry(SignedGraph(1, g.edges), stats=stats)
        assert repr((fn.phi_c, fn.witnesses["phi_c"])) == swept, entry.__name__
        assert fn.witnesses["phi_c"].orientation.reversed_edges == {1}
        # edge 2 reversed alone is the same LP with two columns swapped
        assert (stats["lp_calls"], stats["tie_skips"]) == (1, 1), entry.__name__


@pytest.mark.parametrize("entry", [circular_flow_number, flow_numbers])
@pytest.mark.parametrize("g", [k4(), g_family(2), signed_petersen()], ids=["k4", "g2", "petersen"])
def test_stats_count_lp_calls(monkeypatch, entry, g):
    calls = [0]
    solve_lp = simplex.solve_lp

    def counted(*args):
        calls[0] += 1
        return solve_lp(*args)

    monkeypatch.setattr(solve, "solve_lp", counted)
    stats = {}
    entry(g, stats=stats)
    assert stats["lp_calls"] == calls[0]


def test_stats_on_two_flow_shortcut():
    stats = {}
    circular_flow_number(cycle(4), stats=stats)
    assert stats == {"lp_calls": 0, "tie_skips": 0}


# (lp_calls, tie_skips) of circular_flow_number and of flow_numbers, and
# the sha256 of phi_c with its witness, from before the search read its
# edge order from the per-graph layout cache; the order is the same one
@pytest.mark.parametrize("make,unseeded,seeded,digest", [
    (signed_petersen, (500, 338), (498, 338),
     "8f6f2280bc6043a8dc775516c2519f0c970b6251088f277de5c7e9dec7c002f7"),
    (lambda: g_family(1), (3, 0), (3, 0),
     "34a24b27cd31909dccc074bbefc5511f93666c17df7237f47f37e0cf68b58ce1"),
    (lambda: g_family(2), (29, 16), (29, 16),
     "340ed04ddafd7001f34064cff346a4421a097f72a44b61af373dfce1aed05d92"),
    (lambda: g_family(3), (101, 199), (101, 199),
     "ebb70844c63aab88cd633d833aeae1c9b9f59277f7bc906b4d397eea282b8ad8"),
], ids=["petersen", "g1", "g2", "g3"])
def test_circular_search_pinned(make, unseeded, seeded, digest):
    for entry, counts in ((circular_flow_number, unseeded), (flow_numbers, seeded)):
        stats = {}
        fn = entry(make(), stats=stats)  # a fresh graph: its layout is not cached yet
        fa = fn.witnesses["phi_c"]
        text = f"{fn.phi_c} {sorted(fa.orientation.reversed_edges)} {[str(v) for v in fa.values]}"
        assert (stats["lp_calls"], stats["tie_skips"]) == counts, entry.__name__
        assert hashlib.sha256(text.encode()).hexdigest() == digest, entry.__name__


def test_seed_contradiction_raises():
    # phi_c(K4) = 4: a claimed phi_i of 3 sets a bound no orientation meets
    with pytest.raises(InvariantViolation, match="phi_i=3"):
        solve._circular_flow_number(k4(), solve.DEFAULT_EDGE_CAP_CIRCULAR, None, 3)


def test_switching_invariance_of_numbers():
    g = g_family(1)
    s = switch(g, [0, 2])
    fn = flow_numbers(s)
    assert fn.phi_i == 4 and fn.phi_c == 3
