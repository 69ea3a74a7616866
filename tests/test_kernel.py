"""The pure-Python integer kernel against its jump-free reference.

search_integer jumps over the candidates its closed-form interval
refuses and counts them as nodes.  It must walk the same tree as the
reference that tries each candidate in turn: same status, same node
count (the cap included), and the same witness when it finds a flow.
"""

import pytest
from hypothesis import given, settings, strategies as st

from signedflow import _solver_py
from signedflow.corpus import g_family, random_signed_graph
from signedflow.solve import _assignment_order, _kernel_arrays

from bruteforce import search_integer_reference


def _arrays(g):
    order = _assignment_order(g)
    return (len(order), g.num_vertices, *_kernel_arrays(g, order))


def _agree(g, k, cap):
    args = _arrays(g)
    want = search_integer_reference(*args, k, cap)
    got = _solver_py.search_integer(*args, k, cap)
    assert got[0] == want[0] and got[2] == want[2], (g.edges, k, cap, got, want)
    if want[0] == _solver_py.FOUND:
        assert got[1] == want[1], (g.edges, k, cap)
    return got


def test_kernel_matches_reference_on_corpus(corpus_4_6):
    statuses = set()
    for g in corpus_4_6:
        for k in (2, 3, 4, 5):
            for cap in (1, 7, 50_000_000):
                statuses.add(_agree(g, k, cap)[0])
    assert statuses == {_solver_py.FOUND, _solver_py.EXHAUSTED, _solver_py.CAPPED}


@pytest.mark.parametrize(
    "name,k,status,nodes",
    [
        ("petersen", 5, _solver_py.EXHAUSTED, 264_712),
        ("petersen", 6, _solver_py.FOUND, 9_702),
        ("g3", 3, _solver_py.EXHAUSTED, 256_356),
    ],
)
def test_kernel_matches_reference_on_named_graphs(petersen, name, k, status, nodes):
    g = petersen if name == "petersen" else g_family(3)
    got = _agree(g, k, 50_000_000)
    assert got[0] == status and got[2] == nodes
    # a cap just short of the full count stops exactly one node past it
    assert _agree(g, k, nodes - 1)[::2] == (_solver_py.CAPPED, nodes)


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
