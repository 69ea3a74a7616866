"""Graph type, file format, switching, boundaries, flow checking."""

from fractions import Fraction

import pytest

import bruteforce
from signedflow.core import (
    CheckResult,
    Edge,
    FlowAssignment,
    FlowKind,
    GraphFormatError,
    Orientation,
    SignedGraph,
    boundary,
    check_flow,
    find_bridges,
    is_balanced,
    is_eulerian,
    parse_graph,
    serialize_graph,
    switch,
)

REF = Orientation.reference()


def triangle(signs=(1, 1, 1)):
    return SignedGraph(
        3, (Edge(0, 1, signs[0]), Edge(1, 2, signs[1]), Edge(2, 0, signs[2]))
    )


# ---------------------------------------------------------------------------
# parsing / serialization


def test_parse_header_and_edges():
    g = parse_graph("# comment\np 3 2\ne 1 2 +\ne 2 3 -\n")
    assert g.num_vertices == 3
    assert g.edges == (Edge(0, 1, 1), Edge(1, 2, -1))


def test_parse_negative_loop():
    g = parse_graph("p 1 1\ne 1 1 -\n")
    assert g.edges == (Edge(0, 0, -1),)
    assert g.edges[0].is_loop


def test_parse_petersen_negative_count(petersen):
    assert petersen.num_vertices == 10
    assert petersen.num_edges == 15
    assert len(petersen.negative_edges) == 5


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2 +\n",              # missing header
        "p 2 1\ne 1 3 +\n",       # vertex out of range
        "p 2 2\ne 1 2 +\n",       # edge count mismatch
        "p 2 1\ne 1 2 *\n",       # bad sign
        "p x 1\ne 1 1 +\n",       # bad header field
    ],
)
def test_parse_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("p 1 0\n# c\np 1 0\n", "line 3: duplicate header"),
        ("p 2 1 3\n", "line 1: header needs 2 fields"),
        ("\n\np 2\n", "line 3: header needs 2 fields"),
        ("p 2 x\n", "line 1: bad header numbers"),
        ("p 1.0 0\n", "line 1: bad header numbers"),
        ("p -1 0\n", "line 1: negative header numbers"),
        ("p 1 -1\n", "line 1: negative header numbers"),
        ("# c\ne 1 2 +\np 2 1\n", "line 2: edge before header"),
        ("p 2 1\ne 1 2\n", "line 2: edge needs 3 fields"),
        ("p 2 1\ne 1 2 + +\n", "line 2: edge needs 3 fields"),
        ("p 2 1\ne 1 x +\n", "line 2: bad vertex id"),
        ("p 2 1\ne 1 x *\n", "line 2: bad vertex id"),
        ("p 2 1\n  \ne 1 2 *\n", "line 3: sign must be + or -"),
        ("p 2 1\ne 1 3 *\n", "line 2: sign must be + or -"),
        ("p 2 1\ne 1 2 -+\n", "line 2: sign must be + or -"),
        ("p 2 1\ne 1 3 +\n", "line 2: vertex out of range 1..2"),
        ("p 2 1\ne 0 1 -\n", "line 2: vertex out of range 1..2"),
        ("p 2 1\nx 1 2\n", "line 2: unknown record 'x'"),
        ("p 2 1\ne1 2 +\n", "line 2: unknown record 'e1'"),
        ("p 2 1\n  #x\nE 1 2 +\n", "line 3: unknown record 'E'"),
        ("", "missing 'p' header"),
        ("# only a comment\n\n", "missing 'p' header"),
        ("p 2 2\ne 1 2 +\n", "header announces 2 edges, file has 1"),
        ("p 2 0\ne 1 2 +\n", "header announces 0 edges, file has 1"),
    ],
)
def test_parse_rejection_names_its_line_and_branch(text, message):
    # each branch's exact message, and the line counted over comments and
    # blank lines; the first failing check of a line is the one reported
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


def test_graph_refuses_what_the_parser_refuses():
    # the constructor keeps the parser's range checks: no negative vertex
    # count, no endpoint outside the vertex set
    with pytest.raises(ValueError, match="vertex count -1 is negative"):
        SignedGraph(-1, ())
    with pytest.raises(ValueError, match="out of range"):
        SignedGraph(2, (Edge(0, 2, 1),))
    # nor a count the parser's int() could not give: a float once let an
    # endpoint past the last vertex through, and a bool passed as 0 or 1
    for count, edges in ((2.5, (Edge(0, 2, 1),)), (True, ()), (False, ()), ("3", ())):
        with pytest.raises(ValueError, match="is not an integer"):
            SignedGraph(count, edges)
    assert SignedGraph(0, ()).num_edges == 0


def test_edge_refuses_endpoints_that_are_not_integers():
    # a float endpoint once passed the range check and broke the first
    # layout; a bool passed as vertex 0 or 1; a numpy integer is no int
    import numpy as np

    for end in (1.0, True, np.int64(1)):
        with pytest.raises(ValueError, match="is not an integer"):
            Edge(0, end, 1)
        with pytest.raises(ValueError, match="is not an integer"):
            Edge(end, 0, -1)
    assert Edge(0, 1, 1).v == 1


def test_parse_accepts_what_int_accepts():
    # vertex ids and header numbers are read by int(): signs,
    # underscores between digits and non-ASCII digits are accepted, and
    # any whitespace separates fields
    g = parse_graph("p +3 0_2\n\te \u0661 \u0663  -\ne 0_2 +2 +\n")
    assert g == SignedGraph(3, (Edge(0, 2, -1), Edge(1, 1, 1)))


def test_serialize_round_trip(petersen):
    text = serialize_graph(petersen)
    assert parse_graph(text) == petersen
    # canonical form is a fixed point
    assert serialize_graph(parse_graph(text)) == text


# ---------------------------------------------------------------------------
# switching


def test_switch_triangle_single_vertex():
    g = switch(triangle(), [0])
    assert [e.sign for e in g.edges] == [-1, 1, -1]


def test_switch_empty_is_identity(petersen):
    assert switch(petersen, []) == petersen


def test_switch_involution(petersen):
    assert switch(switch(petersen, [0, 3, 7]), [0, 3, 7]) == petersen


def test_switch_ignores_loops():
    g = SignedGraph(1, (Edge(0, 0, -1), Edge(0, 0, 1)))
    assert switch(g, [0]) == g


def test_switch_unknown_vertex():
    with pytest.raises(Exception):
        switch(triangle(), [5])


def test_switch_preserves_eulerian_and_bridges(corpus_3_4):
    for g in corpus_3_4[::7]:
        s = switch(g, [0])
        assert is_eulerian(s) == is_eulerian(g)
        assert find_bridges(s) == find_bridges(g)


# ---------------------------------------------------------------------------
# orientations and boundaries


def test_orientation_product_rule():
    """tau(h1) * tau(h2) == -sign on every edge, any flip set."""
    g = triangle((1, -1, 1))
    for flips in (frozenset(), frozenset({0, 1}), frozenset({2})):
        for (t0, t1), e in zip(Orientation(flips).directions(g), g.edges):
            assert t0 * t1 == -e.sign


def test_boundary_cycle_conservation():
    g = triangle()
    fa = FlowAssignment(REF, (1, 1, 1))
    assert boundary(g, fa) == (0, 0, 0)


def test_boundary_negative_loop_three_halves():
    g = SignedGraph(1, (Edge(0, 0, -1),))
    fa = FlowAssignment(REF, (Fraction(3, 2),))
    assert boundary(g, fa) == (3,)


def test_boundary_positive_loop_vanishes():
    g = SignedGraph(1, (Edge(0, 0, 1),))
    assert boundary(g, FlowAssignment(REF, (7,))) == (0,)


def test_boundary_total_zero(corpus_3_4):
    # sum over vertices plus sum of negative-edge boundaries is always 0,
    # flow or not
    for g in corpus_3_4[::5]:
        vals = tuple(range(1, g.num_edges + 1))
        fa = FlowAssignment(REF, vals)
        total = sum(boundary(g, fa))
        for i, e in enumerate(g.edges):
            if e.sign < 0:
                total += bruteforce.edge_boundary(g, fa, i)
        assert total == 0


def test_switch_orientation_keeps_flows(petersen):
    from signedflow.solve import find_nz_k_flow

    fa = find_nz_k_flow(petersen, 6)
    s = [1, 4, 5]
    g2 = switch(petersen, s)
    o2 = bruteforce.switch_orientation(petersen, fa.orientation, s)
    assert check_flow(g2, FlowAssignment(o2, fa.values), FlowKind.integer(6)).ok


# ---------------------------------------------------------------------------
# check_flow


def test_check_flow_accepts_aligned_circuit():
    fa = FlowAssignment(REF, (1, 1, 1))
    assert check_flow(triangle(), fa, FlowKind.integer(2)).ok


def test_check_flow_zero_support():
    fa = FlowAssignment(REF, (1, 0, 1))
    res = check_flow(triangle(), fa, FlowKind.integer(2))
    assert not res.ok and "support" in res.violation


def test_check_flow_range():
    fa = FlowAssignment(REF, (3, 3, 3))
    res = check_flow(triangle(), fa, FlowKind.integer(3))
    assert not res.ok and "range" in res.violation


def test_check_flow_boundary_violation():
    fa = FlowAssignment(REF, (1, 1, -1))
    res = check_flow(triangle(), fa, FlowKind.integer(2))
    assert not res.ok and "boundary" in res.violation


def test_check_flow_modulo_reduced_values():
    g = SignedGraph(1, (Edge(0, 0, -1),))
    assert check_flow(g, FlowAssignment(REF, (3,)), FlowKind.modulo(6)).ok
    res = check_flow(g, FlowAssignment(REF, (-3,)), FlowKind.modulo(6))
    assert not res.ok


def test_check_flow_circular_bounds():
    g = triangle()
    r = Fraction(5, 2)
    assert check_flow(g, FlowAssignment(REF, (Fraction(3, 2),) * 3), FlowKind.circular(r)).ok
    res = check_flow(g, FlowAssignment(REF, (Fraction(8, 5),) * 3), FlowKind.circular(r))
    assert not res.ok  # 8/5 > r - 1


@pytest.mark.parametrize(
    "kind,values,violation",
    [
        (FlowKind.integer(3), (1, 1), "value list length mismatch"),
        (FlowKind.integer(1), (1, 1, 1), "k must be an integer >= 2"),
        (FlowKind.integer(3), (Fraction(1, 2), 1, 1), "non-integer value (edge 0)"),
        (FlowKind.modulo(1), (1, 1, 1), "k must be an integer >= 2"),
        (FlowKind.modulo(3), (Fraction(1, 2), 1, 1), "non-integer value (edge 0)"),
        (FlowKind.modulo(3), (3, 1, 1), "support != E (edge 0)"),
        (FlowKind.modulo(3), (-1, 1, 1), "value not reduced to 1..k-1 (edge 0)"),
        (FlowKind.modulo(3), (1, 1, 2), "boundary != 0 mod 3 (vertex 0)"),
        (FlowKind.circular(Fraction(3, 2)), (1, 1, 1), "r must be >= 2"),
        (FlowKind.circular(3), (0, 1, 1), "support != E (edge 0)"),
        (FlowKind.circular(3), (3, 3, 3), "value out of range (edge 0)"),
        (FlowKind.circular(3), (1, 1, Fraction(3, 2)), "boundary != 0 (vertex 0)"),
        (FlowKind("gaussian", 2), (1, 1, 1), "unknown flow kind 'gaussian'"),
    ],
)
def test_check_flow_names_each_violation(kind, values, violation):
    res = check_flow(triangle(), FlowAssignment(REF, values), kind)
    assert res == CheckResult(False, violation)


def test_flow_kind_parse_round_trip():
    for text in ("integer:6", "modulo:3", "circular:5/2"):
        assert str(FlowKind.parse(text)) == text
    with pytest.raises(ValueError):
        FlowKind.parse("gaussian:2")


@pytest.mark.parametrize(
    "text",
    ["integer:-3", "integer:3 ", "integer:3\n", "modulo:+3", "modulo:03", "modulo:\u0663",
     "modulo:", "circular:10/4", "circular:5/1", "circular:-0", "circular:2.5", "circular: 5/2",
     "circular:5/+2"],
)
def test_flow_kind_parse_takes_only_canonical_text(text):
    # each names an honest kind to int() or Fraction(), but is not its str
    with pytest.raises(ValueError, match="bad flow kind"):
        FlowKind.parse(text)


# ---------------------------------------------------------------------------
# balance


def test_all_positive_balanced():
    cert = is_balanced(triangle())
    assert cert.balanced
    assert cert.potential == (1, 1, 1)


def test_negative_loop_unbalanced():
    cert = is_balanced(SignedGraph(1, (Edge(0, 0, -1),)))
    assert not cert.balanced
    assert cert.witness == (0,)


def test_petersen_unbalanced(petersen):
    assert not is_balanced(petersen).balanced


def test_balance_certificate_verifies(corpus_3_4):
    for g in corpus_3_4:
        cert = is_balanced(g)
        if cert.balanced:
            p = cert.potential
            for e in g.edges:
                if not e.is_loop:
                    assert e.sign == p[e.u] * p[e.v]
                else:
                    assert e.sign == 1
        else:
            negs = sum(1 for i in cert.witness if g.edges[i].sign < 0)
            assert negs % 2 == 1


def test_balance_matches_reference_on_full_corpus(corpus_full):
    for g in corpus_full:
        cert = is_balanced(g)
        assert (cert.potential, cert.witness) == bruteforce.is_balanced_reference(g), g


def test_eulerian_degrees():
    # negative loop plus positive digon: degrees 4 and 2, eulerian
    g = SignedGraph(2, (Edge(0, 0, -1), Edge(0, 1, 1), Edge(0, 1, 1)))
    assert is_eulerian(g)
    assert not is_eulerian(triangle((1, 1, 1)).__class__(2, (Edge(0, 1, 1),)))


def test_tree_bridges():
    g = SignedGraph(3, (Edge(0, 1, 1), Edge(1, 2, 1)))
    assert find_bridges(g) == (0, 1)


def test_petersen_bridgeless(petersen):
    assert find_bridges(petersen) == ()
