"""The search kernels against their references.

search_integer tries each candidate in turn, one node each, only
positive values at the root (position 0), and refuses a candidate that
breaks the slack window or leaves a touched vertex a last slot no value
can close (the last-slot rules R1 and R2), read from a table built once
per search.  It must walk the same tree as the reference, which scans
ahead for the last slots: same status, same node count (the cap
included), and the same witness when it finds a flow.  The reference's modes must agree with each other:
with and without the root rule, and with and without the last-slot
rules, the status and the witness are the same; an exhausted search
without the root rule walks twice the root's subtrees, and the
last-slot rules never add a node.
search_modulo must walk the same tree as its reference, which counts
each vertex's unassigned slots by scanning ahead: same status, same
node count (the cap included), and the same witness when it finds a
flow.  Its statuses and node counts on Petersen and g_family(3) are
pinned too, run on the kernel directly (the finder decides k = 2 on
these graphs without it).
Positive loops are no positions of the layout: adding them changes no
search's status, witness or node count, and the finders give them 1.
"""

import pytest
from hypothesis import given, settings, strategies as st

from signedflow import _solver_py
from signedflow.core import Edge, FlowKind, SignedGraph, check_flow
from signedflow.corpus import g_family, random_signed_graph
from signedflow.errors import ResourceCapExceeded
from signedflow.solve import _search_layout, find_nz_k_flow, find_nz_zk_flow

from bruteforce import search_integer_reference, search_modulo_reference


def _arrays(g):
    order, arrays = _search_layout(g)
    return (len(order), g.num_vertices, *arrays)


def _agree(g, k, cap):
    args = _arrays(g)
    want = search_integer_reference(*args, k, cap, root_positive=True, last_slot=True)
    got = _solver_py.search_integer(*args, k, cap)
    assert got[0] == want[0] and got[2] == want[2], (g.edges, k, cap, got, want)
    if want[0] == _solver_py.FOUND:
        assert got[1] == want[1], (g.edges, k, cap)
    return got


def _agree_modulo(g, k, cap):
    args = _arrays(g)
    want = search_modulo_reference(*args, k, cap)
    got = _solver_py.search_modulo(*args, k, cap)
    assert got[0] == want[0] and got[2] == want[2], (g.edges, k, cap, got, want)
    if want[0] == _solver_py.FOUND:
        assert got[1] == want[1], (g.edges, k, cap)
    return got


def _mirror_identity(g, k, last_slot=False):
    """Negating a flow keeps it a flow, and the root's subtree under -c
    mirrors the one under +c, with or without the last-slot rules: the
    root rule keeps the status and the first witness, and an exhausted
    search without it counts twice the nodes.  Returns the search with
    the root rule."""
    args = _arrays(g)
    full = search_integer_reference(*args, k, 0, last_slot=last_slot)
    half = search_integer_reference(*args, k, 0, root_positive=True, last_slot=last_slot)
    assert half[0] == full[0], (g.edges, k)
    if full[0] == _solver_py.FOUND:
        assert half[1] == full[1] and half[2] <= full[2], (g.edges, k)
    else:
        assert full[2] == 2 * half[2], (g.edges, k, full[2], half[2])
    return full, half


def _rule_identity(g, k):
    """The last-slot rules cut only subtrees without a flow: same status
    and first witness as the plain search, and never more nodes.
    Returns the plain search without and with the root rule, and the
    search with both rules."""
    full, plain = _mirror_identity(g, k)
    rules = _mirror_identity(g, k, last_slot=True)[1]
    assert rules[0] == plain[0] and rules[2] <= plain[2], (g.edges, k, rules, plain)
    if plain[0] == _solver_py.FOUND:
        assert rules[1] == plain[1], (g.edges, k)
    return full, plain, rules


def test_kernel_matches_reference_on_corpus(corpus_4_6):
    statuses = set()
    for g in corpus_4_6:
        for k in (2, 3, 4, 5):
            _rule_identity(g, k)
            for cap in (1, 7, 50_000_000):
                statuses.add(_agree(g, k, cap)[0])
    assert statuses == {_solver_py.FOUND, _solver_py.EXHAUSTED, _solver_py.CAPPED}


@pytest.mark.parametrize(
    "name,k,status,nodes,plain_nodes,full_nodes",
    [
        # nodes: the kernel's rules; plain_nodes: the root rule alone, as
        # before the last-slot rules; full_nodes: no rule at all
        pytest.param("petersen", 5, _solver_py.EXHAUSTED, 65_124, 132_356, 264_712, id="petersen-5"),
        pytest.param("petersen", 6, _solver_py.FOUND, 5_032, 9_702, 9_702, id="petersen-6"),
        pytest.param("g3", 3, _solver_py.EXHAUSTED, 15_690, 128_178, 256_356, id="g3-3"),
        # the plain search walks 10,625,158 nodes: too long for the
        # reference, so unchecked here
        pytest.param("g4", 3, _solver_py.EXHAUSTED, 260_078, None, None, id="g4-3"),
    ],
)
def test_kernel_matches_reference_on_named_graphs(
    petersen, name, k, status, nodes, plain_nodes, full_nodes
):
    g = petersen if name == "petersen" else g_family(int(name[1:]))
    got = _agree(g, k, 50_000_000)
    assert got[0] == status and got[2] == nodes
    if plain_nodes is not None:
        full, plain, rules = _rule_identity(g, k)
        assert (full[2], plain[2], rules[2]) == (full_nodes, plain_nodes, nodes)
    # a cap just short of the full count stops exactly one node past it
    assert _agree(g, k, nodes - 1)[::2] == (_solver_py.CAPPED, nodes)


def _graph(n, *edges):
    return SignedGraph(n, tuple(Edge(u, v, sign) for u, v, sign in edges))


@pytest.mark.parametrize(
    "g,status,nodes,plain_nodes",
    [
        # a positive loop as edge 0 is no position, so the root is the
        # triangle's first edge; its one negative edge leaves no flow
        pytest.param(
            _graph(3, (0, 0, 1), (0, 1, 1), (1, 2, 1), (2, 0, -1)),
            _solver_py.EXHAUSTED,
            21,
            39,
            id="loop-before-root-none",
        ),
        # the same loop ahead of a balanced triangle
        pytest.param(
            _graph(3, (0, 0, 1), (0, 1, 1), (1, 2, 1), (2, 0, 1)),
            _solver_py.FOUND,
            3,
            3,
            id="loop-before-root-found",
        ),
        # a negative loop is the root: two of them joined by an edge, and
        # one with a pendant edge, whose last slot R1 closes for no value
        pytest.param(
            _graph(2, (0, 0, -1), (0, 1, 1), (1, 1, -1)),
            _solver_py.FOUND,
            7,
            7,
            id="negative-loop-root-found",
        ),
        pytest.param(
            _graph(2, (0, 0, -1), (0, 1, 1)),
            _solver_py.EXHAUSTED,
            3,
            9,
            id="negative-loop-root-none",
        ),
        # a pendant edge is the root, and its window is empty: its k - 1
        # positive values are refused, one node each
        pytest.param(
            _graph(4, (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1)),
            _solver_py.EXHAUSTED,
            3,
            3,
            id="pendant-root",
        ),
        # the second negative loop at 0 (boundary 2) has the window
        # [-2, 0]: the window refuses 1, R1 refuses -1 (it zeroes vertex
        # 0 ahead of its last slot, the edge to 1), the window refuses
        # 2, and -2 is kept
        pytest.param(
            _graph(2, (0, 0, -1), (0, 0, -1), (0, 1, -1), (1, 1, -1), (1, 1, 1)),
            _solver_py.FOUND,
            10,
            16,
            id="rule-refusal-inside-jump",
        ),
        # three parallel negative edges and a negative loop at 1: at the
        # second edge, vertex 0's last slot is the third edge (R1 with w
        # the other end), and at the third, vertex 1's is the loop (R2)
        pytest.param(
            _graph(2, (0, 1, -1), (0, 1, -1), (0, 1, -1), (1, 1, -1)),
            _solver_py.EXHAUSTED,
            75,
            147,
            id="last-slots-at-both-ends",
        ),
    ],
)
def test_kernel_root_rule_edge_cases(g, status, nodes, plain_nodes):
    """Each case at k = 4 (values +-1..3), with every cap up to the full count."""
    k = 4
    got = _agree(g, k, 0)
    assert got[::2] == (status, nodes)
    assert _rule_identity(g, k)[1][2] == plain_nodes
    for cap in range(1, nodes):
        assert _agree(g, k, cap)[::2] == (_solver_py.CAPPED, cap + 1)


def test_only_positive_loops_need_no_search():
    # no position is left to decide: every value is 1, with no node walked
    g = _graph(2, (0, 0, 1), (0, 0, 1), (1, 1, 1))
    assert _arrays(g) == (0, 2, (), (), (), (), ())
    for k in range(2, 7):
        for finder in (find_nz_k_flow, find_nz_zk_flow):
            stats = {}
            fa = finder(SignedGraph(g.num_vertices, g.edges), k, stats=stats)
            assert fa.signed_values() == (1, 1, 1) and stats["nodes"] == 0, (finder, k)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    num_vertices=st.integers(1, 5),
    extra=st.integers(0, 3),
    loops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 8)), min_size=1, max_size=3),
    k=st.integers(2, 6),
)
def test_positive_loops_change_no_search(seed, num_vertices, extra, loops, k):
    # each (v, i) inserts a positive loop at vertex v as edge i; g's own
    # edges keep their order, so both kernels walk the same tree on h
    g = random_signed_graph(seed, num_vertices, max(num_vertices - 1, 1) + extra)
    edges = [(e, i) for i, e in enumerate(g.edges)]  # each edge with its id in g
    for v, i in loops:
        edges.insert(min(i, len(edges)), (Edge(v % num_vertices, v % num_vertices, 1), None))
    h = SignedGraph(num_vertices, tuple(e for e, _ in edges))
    for kernel in (_solver_py.search_integer, _solver_py.search_modulo):
        got = kernel(*_arrays(h), k, 0)
        assert got == kernel(*_arrays(g), k, 0), (h.edges, k)
    for finder in (find_nz_k_flow, find_nz_zk_flow):
        sg, sh = {}, {}
        fg, fh = finder(g, k, stats=sg), finder(h, k, stats=sh)
        assert sh == sg and (fh is None) == (fg is None), (h.edges, k)
        if fg is not None:
            want = fg.signed_values()
            assert fh.signed_values() == tuple(1 if i is None else want[i] for _, i in edges)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    num_vertices=st.integers(1, 5),
    extra=st.integers(0, 4),
    k=st.integers(2, 6),
    cap=st.sampled_from((0, 1, 5, 60, 50_000_000)),
)
def test_kernel_matches_reference_on_random_graphs(seed, num_vertices, extra, k, cap):
    # edges beyond a spanning tree land on any pair, loops included
    g = random_signed_graph(seed, num_vertices, max(num_vertices - 1, 1) + extra)
    _agree(g, k, cap)
    _rule_identity(g, k)
    _agree_modulo(g, k, cap)


def test_modulo_kernel_matches_reference_on_corpus(corpus_4_6):
    statuses = set()
    for g in corpus_4_6:
        for k in range(2, 7):
            for cap in (0, 1, 7):
                statuses.add(_agree_modulo(g, k, cap)[0])
    assert statuses == {_solver_py.FOUND, _solver_py.EXHAUSTED, _solver_py.CAPPED}


@pytest.mark.parametrize(
    "name,k,found,nodes",
    [
        ("petersen", 2, False, 2),
        ("petersen", 3, False, 30),
        ("petersen", 4, False, 798),
        ("petersen", 5, False, 9_972),
        ("petersen", 6, True, 41),
        ("g3", 2, False, 8),
        ("g3", 3, False, 674),
        ("g3", 4, True, 20),
        ("g3", 5, True, 110),
        ("g3", 6, True, 310),
    ],
)
def test_modulo_kernel_pinned(petersen, fresh, name, k, found, nodes):
    g = fresh(petersen if name == "petersen" else g_family(3))
    status, _, walked = _agree_modulo(g, k, 0)
    assert (status == _solver_py.FOUND, walked) == (found, nodes)
    # a cap just short of the full count stops exactly one node past it
    assert _agree_modulo(g, k, nodes - 1)[::2] == (_solver_py.CAPPED, nodes)
    stats = {}
    za = find_nz_zk_flow(g, k, stats=stats)
    assert (za is not None) == found
    if found:
        assert check_flow(g, za, FlowKind.modulo(k)).ok
    if k == 2:
        # both graphs have a vertex of odd degree: decided with no search
        assert stats == {"nodes": 0, "decided": "odd-degree"}
        return
    assert stats == {"nodes": nodes}
    # on g the recorded answer would be returned under any cap
    with pytest.raises(ResourceCapExceeded) as exc:
        find_nz_zk_flow(fresh(g), k, cap=nodes - 1)
    assert exc.value.spent == nodes
