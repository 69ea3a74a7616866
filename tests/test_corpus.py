"""Named instances, exhaustive enumeration, dedup soundness."""

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import (
    _canonical_pairs,
    _connected_spanning,
    _pair_automorphisms,
    degree_sorted_multisets_reference,
    enumerate_signed_graphs_reference,
    w5_all_signatures_reference,
)
from bruteforce import _signature_classes as _signature_classes_reference
from signedflow.core import Edge, SignedGraph, connected_components, serialize_graph, switch
from signedflow.corpus import (
    MAX_ENUM_EDGES,
    MAX_ENUM_VERTICES,
    CorpusSpec,
    _connected_multisets,
    _signature_classes,
    enumerate_signed_graphs,
    g_family,
    g_family_circular_witness,
    random_signed_graph,
    signed_petersen,
    w5_all_signatures,
    wheel_w5,
)
from signedflow.errors import PreconditionError


def test_petersen_shape(petersen):
    assert petersen.num_vertices == 10
    assert petersen.num_edges == 15
    assert all(petersen.degree(v) == 3 for v in range(10))
    # the five pentagram edges carry the negative signature
    assert petersen.negative_edges == (10, 11, 12, 13, 14)


def test_g_family_shape():
    for t in (1, 2, 3):
        g = g_family(t)
        assert g.num_vertices == 2 + 2 * t
        assert g.num_edges == 5 * t + 2
        negs = [g.edges[i] for i in g.negative_edges]
        assert all(e.is_loop for e in negs)
        assert len(negs) == 2


def test_g_family_bounds_checked():
    # as in the corpus bounds, a bool is refused, not read as 0 or 1
    for t in (0, -1, 1.5, 2.0, "2", True, False, None):
        with pytest.raises(PreconditionError, match="t must be an integer >= 1"):
            g_family(t)


def test_g_family_witness_is_circular_3_flow():
    from signedflow.core import check_flow, FlowKind

    for t in (1, 2, 3):
        g = g_family(t)
        fa = g_family_circular_witness(t)
        assert check_flow(g, fa, FlowKind.circular(3)).ok
        # both negative loops carry the half-integral value
        for i in g.negative_edges:
            assert fa.values[i] * 2 % 2 == 1


def test_wheel_shape():
    g = wheel_w5()
    assert g.num_vertices == 6
    assert g.num_edges == 10
    hub_deg = [g.degree(v) for v in range(6)]
    assert sorted(hub_deg) == [3, 3, 3, 3, 3, 5]


def test_w5_signature_classes():
    sigs = w5_all_signatures()
    assert len(sigs) == 32
    # distribution of negative-edge counts over switching classes
    from collections import Counter

    counts = Counter(len(s.negative_edges) for s in sigs)
    assert counts == {0: 1, 1: 5, 2: 10, 3: 10, 4: 5, 5: 1}


def test_w5_signatures_match_orbit_reference():
    assert w5_all_signatures() == w5_all_signatures_reference(wheel_w5())


def test_w5_classes_pairwise_inequivalent():
    # no two chosen representatives may be switching-equivalent
    sigs = w5_all_signatures()
    seen = set()
    for g in sigs:
        orbit = frozenset(
            tuple(e.sign for e in switch(g, sub).edges)
            for r in range(6)
            for sub in itertools.combinations(range(1, 6), r)
        )
        assert orbit not in seen
        seen.add(orbit)


# frozen counts, hand-checked at (2,2) and frozen from the first
# full enumeration runs after the dedup logic settled
FROZEN_COUNTS = [
    (2, 2, 10),
    (3, 4, 106),
    (3, 5, 311),
    (4, 6, 1623),
    (4, 7, 5674),
    (5, 8, 35330),
]

# sha256 of a whole stream's serialize_graph texts, concatenated (each
# ends in a newline); the full reference comparison below is the oracle
FROZEN_STREAM_SHA256 = [
    (4, 7, "680ddadfefa9b8b6f5b18a873af6cc498ff211142e4ef22dc92d0558f53b7091"),
    (5, 8, "82bdfc57a512323ef41881c3651b41c3b5d9949201706b3418f0bb427b14371c"),
]


@pytest.mark.parametrize("mv,me,count", FROZEN_COUNTS)
def test_enumeration_counts(mv, me, count, request):
    if (mv, me) == (MAX_ENUM_VERTICES, MAX_ENUM_EDGES):
        graphs = request.getfixturevalue("corpus_full")
    else:
        graphs = enumerate_signed_graphs(mv, me)
    assert sum(1 for _ in graphs) == count


@pytest.fixture(scope="module")
def full_stream(corpus_full):
    return [(g.num_vertices, g.num_edges, serialize_graph(g)) for g in corpus_full]


@pytest.mark.parametrize("mv,me,digest", FROZEN_STREAM_SHA256)
def test_enumeration_stream_pinned(mv, me, digest, full_stream):
    texts = (text for n, m, text in full_stream if n <= mv and m <= me)
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest


def test_full_stream_matches_reference(full_stream):
    reference = enumerate_signed_graphs_reference(MAX_ENUM_VERTICES, MAX_ENUM_EDGES)
    assert [text for _, _, text in full_stream] == [serialize_graph(g) for g in reference]


@pytest.mark.parametrize(
    "mv,me",
    [
        (mv, me)
        for mv in range(1, MAX_ENUM_VERTICES + 1)
        for me in range(1, MAX_ENUM_EDGES + 1)
        if (mv, me) != (MAX_ENUM_VERTICES, MAX_ENUM_EDGES)
    ],
)
def test_smaller_bounds_filter_the_full_stream(mv, me, full_stream):
    # the stream runs in (vertex count, edge count, edge list) order, so
    # a smaller bound must give exactly the matching part of the 5/8 one
    want = [text for n, m, text in full_stream if n <= mv and m <= me]
    assert [serialize_graph(g) for g in enumerate_signed_graphs(mv, me)] == want


@pytest.mark.parametrize(
    "n,m",
    [(n, m) for n in range(1, 6) for m in range(1, 9)] + [(6, m) for m in range(1, 7)],
)
def test_degree_sorted_multisets_match_filter(n, m):
    # the pruned walk gives exactly the multisets that the degree filter
    # and a union-find connectivity check keep, in the same order, each
    # with its own pair indices and degrees; n = 6, m = 6 alone filters
    # 230,230 multisets.  The sizes below m that a walk lists on the way
    # are those of a walk stopping there, so every size is checked.
    index = {p: i for i, p in enumerate((u, v) for u in range(n) for v in range(u, n))}
    walk = _connected_multisets(n, m)
    want = [p for p in degree_sorted_multisets_reference(n, m) if _connected_spanning(n, p)]
    assert [pairs for pairs, _, _ in walk[m]] == want
    for pairs, at, key in walk[m]:
        assert at == tuple(index[p] for p in pairs)
        assert key == tuple(sum((u == w) + (v == w) for u, v in pairs) for w in range(n))
    assert walk[:m] == _connected_multisets(n, m - 1)


def test_two_vertex_classes_by_hand():
    """All 10 classes at <= 2 vertices / <= 2 edges, written out.

    underlying graphs: loop; two loops; double loop; edge; edge+loop;
    digon.  signatures counted per switching orbit.
    """
    got = list(enumerate_signed_graphs(2, 2))
    assert len(got) == 10
    # loops are switching-fixed, so sign patterns survive verbatim:
    # 1 loop: {+}, {-} -> 2;  2 separated loops: ++, +-, -- -> 3
    # (-+ is isomorphic to +-);  double loop at one vertex: ++, +-, -- -> 3?
    # no: ++ and -- are distinct, +- too -> 3... minus the isomorph swap
    one_loop = [g for g in got if g.num_edges == 1 and g.edges[0].is_loop]
    assert len(one_loop) == 2


def test_enumeration_all_connected():
    from signedflow.core import connected_components

    for g in enumerate_signed_graphs(3, 4):
        assert len(connected_components(g)) == 1


def test_enumeration_is_deterministic():
    a = [serialize_graph(g) for g in enumerate_signed_graphs(3, 4)]
    b = [serialize_graph(g) for g in enumerate_signed_graphs(3, 4)]
    assert a == b


def test_enumeration_bounds_checked():
    # a bound out of range, not an int, or a bool is refused before the
    # first graph streams: 2.5 used to reach range(), True to count as 1
    for mv, me in [(6, 8), (0, 2), (2, 9), (2, 0), (2.5, 3), (3, 2.0), (True, 2), (2, True),
                   ("3", 2)]:
        with pytest.raises(PreconditionError, match="must be an integer in 1.."):
            next(enumerate_signed_graphs(mv, me))


@st.composite
def connected_multigraphs(draw, max_v=6, max_e=9, max_mult=4):
    """A connected vertex-pair multiset: a random spanning tree, then
    extra pairs, each pair up to max_mult times, max_e pairs in all."""
    n = draw(st.integers(1, max_v))
    mult: dict[tuple[int, int], int] = {}
    budget = max_e
    for i in range(1, n):
        pair = (draw(st.integers(0, i - 1)), i)
        mult[pair] = draw(st.integers(1, min(max_mult, budget - (n - 1 - i))))
        budget -= mult[pair]
    while budget and (not mult or draw(st.booleans())):
        pair = tuple(sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))))
        room = min(budget, max_mult - mult.get(pair, 0))
        if room:
            more = draw(st.integers(1, room))
            mult[pair] = mult.get(pair, 0) + more
            budget -= more
    return n, tuple(sorted(p for p, c in mult.items() for _ in range(c)))


@settings(max_examples=300, deadline=None)
@given(connected_multigraphs())
@example((6, ((0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5), (4, 5))))
@example((4, ((0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3), (1, 2), (1, 3), (2, 3))))
def test_signature_step_matches_orbit_reference(graph):
    # beyond the enumeration cap (6 vertices, 9 edges): the pivot normal
    # form with its tie and automorphism checks picks the same lex-first
    # sign vector per class, in the same order, as marking whole orbits;
    # even multiplicities are what make pivot ties
    n, pairs = graph
    canon, _ = _canonical_pairs(n, pairs)
    auts = _pair_automorphisms(n, canon)
    counts = [canon.count(p) for p in dict.fromkeys(canon)]
    got = [sum(((-1,) * (c - d) + (1,) * d for c, d in zip(counts, digits)), ())
           for digits in _signature_classes(n, canon, auts)]
    assert got == list(_signature_classes_reference(n, canon, auts))


def _class_forms(g):
    """Every sorted (u, v, sign) edge list of g under permutation x switching."""
    n = g.num_vertices
    forms = set()
    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            s = switch(g, sub)
            for perm in itertools.permutations(range(n)):
                forms.add((n, tuple(sorted(
                    (min(perm[e.u], perm[e.v]), max(perm[e.u], perm[e.v]), e.sign)
                    for e in s.edges
                ))))
    return forms


def _class_index(graphs):
    """Map every form of every representative to its index; a form reached
    from two representatives means they are equivalent."""
    index = {}
    for i, g in enumerate(graphs):
        for form in _class_forms(g):
            assert index.setdefault(form, i) == i, "two representatives are equivalent"
    return index


@pytest.mark.parametrize("mv,me", [(2, 2), (3, 4)])
def test_no_two_classes_switching_equivalent(mv, me):
    # brute-check the dedup: reps must stay inequivalent under
    # permutation + switching
    _class_index(list(enumerate_signed_graphs(mv, me)))


def test_every_small_signed_multigraph_has_one_representative():
    # completeness at 3/4: every connected signed multigraph, built
    # straight from all edge multisets and sign vectors, is equivalent to
    # a representative, and to only one since the classes are disjoint
    reps = list(enumerate_signed_graphs(3, 4))
    index = _class_index(reps)
    reached = set()
    for n in range(1, 4):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(1, 5):
            for combo in itertools.combinations_with_replacement(pairs, m):
                for signs in itertools.product((1, -1), repeat=m):
                    g = SignedGraph(n, tuple(Edge(u, v, s) for (u, v), s in zip(combo, signs)))
                    if len(connected_components(g)) != 1:
                        continue
                    form = (n, tuple(sorted((e.u, e.v, e.sign) for e in g.edges)))
                    assert form in index, f"no representative for {form}"
                    reached.add(index[form])
    assert reached == set(range(len(reps)))


def test_random_graph_reproducible():
    a = random_signed_graph(seed=7, num_vertices=5, num_edges=9)
    b = random_signed_graph(seed=7, num_vertices=5, num_edges=9)
    assert a == b
    c = random_signed_graph(seed=8, num_vertices=5, num_edges=9)
    assert a != c


def test_random_graph_connected_and_sized():
    from signedflow.core import connected_components

    for seed in range(10):
        g = random_signed_graph(seed=seed, num_vertices=6, num_edges=11)
        assert g.num_vertices == 6 and g.num_edges == 11
        assert len(connected_components(g)) == 1


def test_corpus_spec_round_trip():
    for text in (
        "petersen-fig1",
        "g-family:t=2",
        "w5-all-signatures",
        "enumerate:max_e=4,max_v=3",
        "random:count=3,num_edges=7,num_vertices=4,seed=11",
    ):
        assert str(CorpusSpec.parse(text)) == text


def test_corpus_spec_builds():
    assert len(CorpusSpec.parse("petersen-fig1").build()) == 1
    assert len(CorpusSpec.parse("w5-all-signatures").build()) == 32
    assert len(CorpusSpec.parse("enumerate:max_e=2,max_v=2").build()) == 10
    assert len(CorpusSpec.parse("random:count=4,num_edges=6,num_vertices=4,seed=3").build()) == 4
    assert len(CorpusSpec.parse("random:count=2,e=6,seed=3,v=4").build()) == 2


def test_corpus_spec_rejects_unknown():
    with pytest.raises(PreconditionError):
        CorpusSpec.parse("complete-graphs:n=9")


@pytest.mark.parametrize(
    "text",
    [
        "enumerate:max_v=abc",
        "enumerate:max_e=1e3",
        "enumerate:max_v=2.5",
        "enumerate:max_v=",
        "random:count=x,num_edges=6,num_vertices=4,seed=3",
        "random:neg_prob=half,num_edges=6,num_vertices=4,seed=3",
    ]
    + [f"random:{key}=2.5" for key in ("t", "seed", "v", "num_vertices", "e", "num_edges", "count")]
    + [f"enumerate:{key}=2.0" for key in ("max_v", "max_e")],
)
def test_corpus_spec_rejects_bad_numbers(text):
    with pytest.raises(PreconditionError):
        CorpusSpec.parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "enumerate:maxv=2,max_e=2",
        "enumerate:max_e=2,t=2",
        "petersen-fig1:t=3",
        "w5-all-signatures:count=2",
        "g-family:max_v=3,t=2",
        "random:e=6,max_v=4,seed=3,v=4",
        "enumerate:max_v=2,max_v=5",
        "g-family:t=1,t=2",
        "random:e=6,seed=3,v=3,v=4",
        "random:e=6,num_vertices=4,seed=3,v=4",
        "random:e=6,num_edges=6,seed=3,v=4",
    ],
)
def test_corpus_spec_rejects_bad_keys(text):
    # a key the family does not take, a repeated key, or both spellings
    # of one key would otherwise build some other corpus without a word
    with pytest.raises(PreconditionError):
        CorpusSpec.parse(text)


def test_corpus_spec_rejects_float_for_integer_parameter():
    with pytest.raises(PreconditionError):
        CorpusSpec("enumerate", (("max_v", 2.5),))


def test_corpus_spec_float_parameter_accepts_exponent():
    spec = CorpusSpec.parse("random:neg_prob=1e-1,num_edges=6,num_vertices=4,seed=3")
    assert dict(spec.params)["neg_prob"] == 0.1
    assert len(spec.build()) == 1
