"""Randomized laws that must hold on every signed graph, not just the corpus."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from signedflow.core import (
    Edge,
    FlowAssignment,
    FlowKind,
    Orientation,
    SignedGraph,
    boundary,
    check_flow,
    connected_components,
    edge_subgraph,
    is_balanced,
    lift_flow,
    serialize_graph,
    switch,
)
from signedflow.corpus import random_signed_graph
from signedflow import solve
from signedflow.errors import NotFlowAdmissibleError
from signedflow.solve import circular_flow_number, find_nz_k_flow, find_nz_zk_flow, flow_numbers
from signedflow.structure import is_flow_admissible
from signedflow.transform import (
    ConversionState,
    _Budget,
    _dipath_reach,
    _ditrail_reachable,
    _negative_ditrail_search,
    _validate_tadpole,
    find_negative_ditrail,
    find_tadpole,
    normalize_circular_flow,
)

import bruteforce
from bruteforce import (
    connected_components_reference,
    edge_boundary,
    incidence,
    subset_bound,
    switch_orientation,
    tadpole_exists,
)

REF = Orientation.reference()


@st.composite
def signed_graphs(draw, max_v=4, max_e=6):
    n = draw(st.integers(1, max_v))
    m = draw(st.integers(1, max_e))
    vert = st.integers(0, n - 1)
    sign = st.sampled_from((1, -1))
    edges = tuple(Edge(draw(vert), draw(vert), draw(sign)) for _ in range(m))
    return SignedGraph(n, edges)


@st.composite
def vertex_subsets(draw, g):
    return draw(st.sets(st.integers(0, g.num_vertices - 1)))


@given(signed_graphs(), st.data())
def test_switch_is_an_involution(g, data):
    s = data.draw(vertex_subsets(g))
    assert serialize_graph(switch(switch(g, s), s)) == serialize_graph(g)


@given(signed_graphs(max_v=7))
def test_components_match_reference(g):
    # read off the cached spanning forest, in the reference's order
    assert connected_components(g) == connected_components_reference(g)


@given(signed_graphs(), st.data())
def test_balance_is_switching_invariant(g, data):
    s = data.draw(vertex_subsets(g))
    assert is_balanced(switch(g, s)).balanced == is_balanced(g).balanced


@given(signed_graphs(), st.data())
@settings(deadline=None)
def test_switching_transports_flows(g, data):
    fa = find_nz_k_flow(g, 3)
    assume(fa is not None)
    s = data.draw(vertex_subsets(g))
    g2 = switch(g, s)
    o2 = switch_orientation(g, fa.orientation, s)
    assert check_flow(g2, FlowAssignment(o2, fa.values), FlowKind.integer(3)).ok


@given(signed_graphs(), st.integers(2, 5))
@settings(deadline=None)
def test_modular_solutions_are_valid_and_deterministic(g, k):
    # no parity claim here: residue classes only pin the boundary mod k, and
    # a lone negative loop really does carry a single odd value under Z2
    fa = find_nz_zk_flow(g, k)
    assume(fa is not None)
    assert check_flow(g, fa, FlowKind.modulo(k)).ok
    assert find_nz_zk_flow(g, k) == fa


@given(signed_graphs(), st.integers(2, 4))
@settings(deadline=None)
def test_integer_solutions_obey_negative_parity(g, k):
    fa = find_nz_k_flow(g, k)
    assume(fa is not None)
    assert check_flow(g, fa, FlowKind.integer(k)).ok
    odd_neg = sum(
        1 for e, v in zip(g.edges, fa.values) if e.sign < 0 and v % 2 == 1
    )
    assert odd_neg % 2 == 0


@given(signed_graphs(), st.data())
def test_vertex_plus_edge_boundaries_cancel(g, data):
    # conservation bookkeeping: whatever leaks out of the vertex boundaries
    # sits on the negative edges, for any values and any orientation
    values = tuple(
        data.draw(st.integers(-5, 5)) for _ in range(g.num_edges)
    )
    flips = data.draw(st.sets(st.integers(0, g.num_edges - 1)))
    fa = FlowAssignment(Orientation(frozenset(flips)), values)
    total = sum(boundary(g, fa))
    total += sum(
        edge_boundary(g, fa, i) for i, e in enumerate(g.edges) if e.sign < 0
    )
    assert total == 0


_nonzero = (st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=6)).filter(bool)


@st.composite
def flows_on(draw, g):
    """Nonzero int and Fraction values on g's edges, under any flip set."""
    m = g.num_edges
    values = tuple(draw(st.lists(_nonzero, min_size=m, max_size=m)))
    return FlowAssignment(Orientation(frozenset(draw(st.sets(st.integers(0, m - 1))))), values)


@st.composite
def random_graph_flows(draw):
    n = draw(st.integers(1, 5))
    g = random_signed_graph(draw(st.integers(0, 2**16)), n, draw(st.integers(max(n - 1, 1), 8)))
    return g, draw(flows_on(g))


def _types(values):
    return [type(v) for v in values]


@given(random_graph_flows())
def test_folding_keeps_the_boundary_and_the_signed_values(case):
    g, fa = case
    signed = fa.signed_values()
    assert _types(signed) == _types(fa.values)
    folded = FlowAssignment.from_signed(signed)
    assert all(v > 0 for v in folded.values)
    assert boundary(g, folded) == boundary(g, fa)
    back = folded.signed_values()
    assert back == signed and _types(back) == _types(signed)


@given(random_graph_flows(), st.data())
def test_a_lifted_sub_flow_keeps_its_boundary(case, data):
    # edge ids may repeat, as a doubled path's do; the lift sums the copies
    g, host = case
    ids = data.draw(st.lists(st.integers(0, g.num_edges - 1), min_size=1, max_size=10))
    sub, vback, eback = edge_subgraph(g, ids)
    sub_fa = data.draw(flows_on(sub))
    lifted = lift_flow(g, eback, sub_fa, host.orientation)
    assert lifted.orientation == host.orientation
    want = [0] * g.num_vertices
    for v, b in zip(vback, boundary(sub, sub_fa)):
        want[v] = b
    assert list(boundary(g, lifted)) == want


@given(signed_graphs(), st.data())
@settings(deadline=None)
def test_minusing_is_an_involution(g, data):
    fa = find_nz_zk_flow(g, 3)
    assume(fa is not None)
    state = ConversionState.lift(g, fa, 3)
    vals0 = list(state.values)
    dirs0 = [list(d) for d in state.dirs]
    ids = data.draw(st.sets(st.integers(0, g.num_edges - 1)))
    state.minus(ids)
    state.minus(ids)
    assert state.values == vals0
    assert state.dirs == dirs0


@st.composite
def conversion_states(draw, max_v=6, max_e=9):
    """A graph with arbitrary half-edge directions and a start vertex:
    switching and minusing reach every direction pattern."""
    g = draw(signed_graphs(max_v=max_v, max_e=max_e))
    tau = st.sampled_from((1, -1))
    dirs = [[draw(tau), draw(tau)] for _ in g.edges]
    x = draw(st.integers(0, g.num_vertices - 1))
    return ConversionState(g, 3, dirs, [1] * g.num_edges), x


@given(conversion_states())
@settings(deadline=None, max_examples=400)
def test_switching_the_negatively_reached_set_once_empties_it(case):
    # the conversion switches Y-(x) once before its tadpole search: every
    # walk from x keeps its vertices, and those ending in Y-(x) turn
    # positive, so nothing is left reached only negatively
    state, x = case
    y_plus, y_minus = _dipath_reach(state, x, _Budget(None, "test"))
    state.switch_at(y_minus)
    assert _dipath_reach(state, x, _Budget(None, "test")) == (y_plus | y_minus, frozenset())


@given(conversion_states())
@settings(deadline=None, max_examples=400)
def test_tadpole_splice_matches_exhaustive_search(case):
    # find_tadpole's precondition: nothing is reached from x only
    # negatively (the conversion switches that set away first)
    state, x = case
    _, y_minus = _dipath_reach(state, x, _Budget(None, "test"))
    assume(not y_minus)
    tp = find_tadpole(state, x)
    assert (tp is None) == (not tadpole_exists(state.graph, state.dirs, x))
    if tp is not None:
        assert tp.tail_end == x
        assert _validate_tadpole(state, tp)


@given(conversion_states(), st.data())
@settings(deadline=None, max_examples=400)
def test_unreachable_ditrail_target_has_no_ditrail(case, data):
    # a ditrail is a walk that repeats no edge, so a target that no walk
    # reaches has none: the search, run alone with a generous cap, agrees,
    # and with the check in front the answer is the search's own
    state, x = case
    y = data.draw(st.integers(0, state.graph.num_vertices - 1))
    found = _negative_ditrail_search(state, x, y, _Budget(10**7, "test"))
    if not _ditrail_reachable(state, x, y):
        assert found is None
    assert find_negative_ditrail(state, x, y) == found


@given(signed_graphs(max_v=4, max_e=5))
@settings(deadline=None, max_examples=30)
def test_normalization_lands_on_grid_within_band(g):
    try:
        numbers = flow_numbers(g, k_max=6)
    except NotFlowAdmissibleError:
        assume(False)
    assume(numbers.phi_c is not None and "phi_c" in numbers.witnesses)
    r = Fraction(numbers.phi_c)
    fa = numbers.witnesses["phi_c"]
    band = r - 1
    p, q = band.numerator, band.denominator
    state = normalize_circular_flow(g, fa, p, q)
    final = state.flow
    assert final.orientation == fa.orientation
    assert all(b == 0 for b in boundary(g, final))
    for i, v in enumerate(final.values):
        value = Fraction(v)
        assert 1 <= value <= band
        if i in state.off_grid:
            # stuck values sit strictly between grid points: 2q*f is odd
            assert (2 * q * value).denominator == 1
            assert (2 * q * value).numerator % 2 == 1
        else:
            assert (q * value).denominator == 1


@settings(max_examples=500)
@given(signed_graphs(max_v=6, max_e=10), st.data())
def test_connected_sets_carry_the_subset_bound(g, data):
    # the circular search checks connected vertex sets only, with T from
    # the degrees and D summed per vertex; over all sets the bound is the same
    rev = data.draw(st.sets(st.integers(0, g.num_edges - 1)))
    lp_edges = [j for j, e in enumerate(g.edges) if not (e.u == e.v and e.sign > 0)]
    a = incidence(g)
    d = [
        sum((1 if j in rev else -1) * int(a[v, j]) for j in range(g.num_edges))
        for v in range(g.num_vertices)
    ]
    one_sided, best = False, None
    for mask in solve._connected_sets(g, lp_edges, g.num_vertices):
        total = solve._set_weight(g, lp_edges, mask)
        dx = abs(sum(d[v] for v in range(g.num_vertices) if mask >> v & 1))
        if not total:
            continue
        if dx == total:
            one_sided = True
            continue
        ratio = Fraction(total + dx, total - dx)
        best = ratio if best is None else max(best, ratio)
    brute_one_sided, brute_best = subset_bound(g, rev)
    assert one_sided == brute_one_sided
    if not one_sided:
        assert best == brute_best


@st.composite
def twin_multigraphs(draw, max_v=3, max_e=7):
    # a few distinct edges, each repeated 1-3 times, at shuffled ids:
    # identical parallel edges, repeated negative loops at one vertex, and
    # twins of the lowest LP edge
    n = draw(st.integers(1, max_v))
    vert = st.integers(0, n - 1)
    kinds = draw(st.lists(st.builds(Edge, vert, vert, st.sampled_from((1, -1))), min_size=1, max_size=3))
    edges = [e for e in kinds for _ in range(draw(st.integers(1, 3)))]
    assume(len(edges) <= max_e)
    return SignedGraph(n, tuple(draw(st.permutations(edges))))


@settings(deadline=None, max_examples=150)
@given(twin_multigraphs())
def test_twin_rule_matches_orientation_sweep(g):
    # the circular search orients each class of twins once; the sweep
    # tries every orientation, and both keep the least (t, reversed ids)
    assume(is_flow_admissible(g))
    swept = repr(bruteforce.circular_sweep(g))
    for entry in (circular_flow_number, flow_numbers):
        fn = entry(g)
        assert repr((fn.phi_c, fn.witnesses["phi_c"])) == swept, entry.__name__
